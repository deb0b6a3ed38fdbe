package router

import "testing"

// SetSparseGate sets the corridor-search HPWL gate for the tests in
// router_test and returns a func that restores the production value. Not
// safe while another test routes concurrently.
func SetSparseGate(n int) (restore func()) {
	old := sparseMinHPWL
	sparseMinHPWL = n
	return func() { sparseMinHPWL = old }
}

// TestSearchCfgAllocatesNothing pins the first-search cost model as plain
// data: building it allocates no per-search pin map and no step-cost
// closure.
func TestSearchCfgAllocatesNothing(t *testing.T) {
	st := &state{opt: Defaults(), pen: make([]int32, 64)}
	avg := testing.AllocsPerRun(100, func() {
		if cfg := st.searchCfg(st.pen); cfg.Pen == nil {
			t.Fatal("searchCfg dropped the penalty plane")
		}
	})
	if avg != 0 {
		t.Fatalf("searchCfg allocates %.1f objects per call, want 0", avg)
	}
}

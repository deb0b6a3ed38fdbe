package router

import "testing"

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

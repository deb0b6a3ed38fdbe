package sadp

import (
	"fmt"
	"sync"
	"testing"
)

// leverCfg is one cell of the rip-up equivalence matrix: the router's
// opt-in levers that must never change a routing result.
type leverCfg struct {
	cache, paranoid, sparse bool
}

func (c leverCfg) String() string {
	return fmt.Sprintf("cache=%v paranoid=%v sparse=%v", c.cache, c.paranoid, c.sparse)
}

func (c leverCfg) options() Options {
	opt := Defaults()
	opt.DecompCache = c.cache
	opt.DecompParanoid = c.paranoid
	opt.SparseSearch = c.sparse
	return opt
}

// TestRipupEquivalenceMatrix crosses the levers that act inside the
// rip-up-and-reroute loop — the decomposition memo cache consulted by
// every window check and repair pass, its Paranoid deep copies, and the
// sparse corridor search at its default HPWL gate — and requires every
// cell to reproduce the plain uncached run byte for byte: paths, colors,
// overlay totals, every counter outside the decomp.* family, the per-net
// attribution table (rip-up counts included) and the raw JSONL trace
// stream. Paranoid cells also prove no caller wrote through a cached
// Result.
func TestRipupEquivalenceMatrix(t *testing.T) {
	specs := cacheSpecs[:1]
	if !testing.Short() {
		specs = cacheSpecs[:2]
	}
	for _, sp := range specs {
		t.Run(sp.Name, func(t *testing.T) {
			want, wantTr := routeDump(t, sp, leverCfg{}.options())
			for _, cache := range []bool{false, true} {
				for _, paranoid := range []bool{false, true} {
					for _, sparse := range []bool{false, true} {
						cfg := leverCfg{cache: cache, paranoid: paranoid, sparse: sparse}
						if cfg == (leverCfg{}) {
							continue
						}
						got, gotTr := routeDump(t, sp, cfg.options())
						if got != want {
							t.Fatalf("%v diverges from the uncached baseline:\n--- baseline\n%s\n--- got\n%s", cfg, want, got)
						}
						if gotTr != wantTr {
							t.Fatalf("%v: trace diverges from the uncached baseline: %s", cfg, traceDiff(wantTr, gotTr))
						}
					}
				}
			}
		})
	}
}

// TestIntraParallelMatchesSerial holds in-process parallelism to the
// serial bar: several goroutines routing the same instance at once — the
// shape of sadpd's worker pool and the -jobs harness, where concurrent
// runs share the process-wide A*, sparse and decomposition engine pools —
// must each reproduce a lone serial run byte for byte: paths, colors,
// overlay totals, counters, per-net attribution and the JSONL trace. CI
// runs it under -race, which also checks that the pools never hand one
// engine to two runs.
func TestIntraParallelMatchesSerial(t *testing.T) {
	const runs = 4
	for _, sp := range cacheSpecs {
		t.Run(sp.Name, func(t *testing.T) {
			want, wantTr := routeDump(t, sp, Defaults())
			var wg sync.WaitGroup
			got := make([]string, runs)
			gotTr := make([]string, runs)
			for i := range runs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], gotTr[i] = routeDump(t, sp, Defaults())
				}()
			}
			wg.Wait()
			for i := range runs {
				if got[i] != want {
					t.Fatalf("concurrent run %d diverges from serial:\n--- serial\n%s\n--- run %d\n%s", i, want, i, got[i])
				}
				if gotTr[i] != wantTr {
					t.Fatalf("concurrent run %d: trace diverges from serial: %s", i, traceDiff(wantTr, gotTr[i]))
				}
			}
		})
	}
}

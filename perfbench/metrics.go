package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// catalogue is the metric list of BENCHMARK.json, the single source of
// metric names and units.
type catalogue struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadCatalogue(root string) (catalogue, error) {
	var c catalogue
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// values maps metric names to measured values.
type values map[string]float64

// build selects the metrics of the run's mode: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. An end-to-end
// metric the workload did not measure is an error; a per-layer metric of a
// layer the workload does not exercise (serve.* on a batch workload, say)
// reads 0. A measured name missing from the catalogue is an error, so the
// code and BENCHMARK.json cannot drift apart.
func (c catalogue) build(traced bool, v values) (map[string]metric, error) {
	known := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), c.EndToEnd...), c.PerLayer...) {
		known[d.Name] = true
	}
	for name := range v {
		if !known[name] {
			return nil, fmt.Errorf("metric %q is not listed in BENCHMARK.json", name)
		}
	}
	list := c.EndToEnd
	if traced {
		list = c.PerLayer
	}
	out := make(map[string]metric, len(list))
	for _, d := range list {
		x, ok := v[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	return out, nil
}

// addCounters folds the router's deterministic work counters (summed over
// every instance or job of one pass) into the per-layer values, with the
// ratios derived from them.
func addCounters(v values, c map[string]int64, nets, unaccounted int64) {
	for _, name := range []string{
		"astar.searches", "astar.expanded", "router.no_path",
		"sparse.searches", "sparse.fallbacks",
		"router.route_attempts", "router.ripups", "router.blocker_rips",
		"router.repair_passes", "router.repair_rips",
		"decomp.decompositions", "decomp.blobs", "window.checks", "window.failed",
		"colorflip.dp_runs", "colorflip.flips_applied",
	} {
		v[name] = float64(c[name])
	}
	v["astar.expanded_per_search"] = ratio(float64(c["astar.expanded"]), float64(c["astar.searches"]))
	v["sparse.adopt_ratio"] = ratio(float64(c["sparse.searches"]-c["sparse.fallbacks"]), float64(c["sparse.searches"]))
	v["router.attempts_per_net"] = ratio(float64(c["router.route_attempts"]), float64(nets))
	v["router.unaccounted_nets"] = float64(unaccounted)
	hits, misses := c["decomp.cache_hits"], c["decomp.cache_misses"]
	v["decomp.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
}

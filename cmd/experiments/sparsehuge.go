package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/decomp"
	"sadproute/internal/drc"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// sparsehuge measures Options.SparseSearch on the huge benchmark family
// (bench.HugeSpecs): every cell dense, then every cell with the corridor
// graph, one run at a time on one core. The sparse run
// of each instance is additionally decomposed and DRC-checked end to end
// — the corridor engine must not cost any of the paper's guarantees.
//
// Output discipline: "det" lines are deterministic for a fixed spec —
// result shape, guarantee counters and a fingerprint over route shape,
// per-net attribution and all counters outside the execution-strategy
// families. Dense and sparse fingerprints legitimately differ (the
// corridor engine adopts equal-cost, not identical, paths); each line is
// stable run to run, which is what CI diffs. Timing lines carry
// wall-clock noise and are reported, never compared.
func sparsehuge(ds rules.Set, scale string, h harness) (string, error) {
	specs := bench.HugeSpecs()
	if scale == "tiny" {
		// CI/test mode: the smallest instance exercises the whole pipeline
		// (both configs, ledger cells, DRC) in about a second.
		specs = specs[:1]
	}

	type runRow struct {
		spec                       bench.Spec
		label                      string
		routeWall, totalWall       time.Duration
		expansions                 int64
		searches, fallbacks, nodes int64
		routedPct                  float64
		routed, failed, wl, vias   int
		conf, hard, viol           int
		fingerprint                string
	}

	route := func(sp bench.Spec, sparse bool) (runRow, bench.Metrics) {
		opt := router.Defaults()
		opt.SparseSearch = sparse
		rec := obs.New()
		opt.Obs = rec
		cfg := bench.RunConfig{Rules: ds, RouterOptions: &opt}
		m, err := bench.Run(bench.Generate(sp), bench.AlgoOurs, cfg)
		if err != nil {
			panic(err) // AlgoOurs never errors; keep the row type simple
		}
		label := "dense"
		if sparse {
			label = "sparse"
			// Separate ledger key: "ours" rows stay comparable with every
			// other experiment's dense cells.
			m.Algo = "ours-sparse"
		}
		snap := m.Obs
		fpSnap := snap
		fpSnap.ZeroFamily("decomp.")
		var fp bytes.Buffer
		fmt.Fprintf(&fp, "rt=%.2f wl=%d vias=%d conf=%d hard=%d viol=%d\n",
			m.RoutabilityPct, m.Wirelength, m.Vias, m.Conflicts, m.HardOverlays, m.Violations)
		fp.WriteString(fpSnap.CountersString())
		fp.WriteString(obs.NetStatsString(m.NetStats))
		return runRow{
			spec:       sp,
			label:      label,
			routeWall:  snap.Stage(obs.StageRoute),
			totalWall:  snap.Stage(obs.StageTotal),
			expansions: snap.Counter(obs.CtrAstarExpanded),
			searches:   snap.Counter(obs.CtrSparseSearches),
			fallbacks:  snap.Counter(obs.CtrSparseFallbacks),
			nodes:      snap.Counter(obs.CtrSparseNodes),
			routedPct:  m.RoutabilityPct,
			routed:     int(m.RoutabilityPct/100*float64(sp.Nets) + 0.5),
			failed:     sp.Nets - int(m.RoutabilityPct/100*float64(sp.Nets)+0.5),
			wl:         m.Wirelength, vias: m.Vias,
			conf: m.Conflicts, hard: m.HardOverlays, viol: m.Violations,
			fingerprint: fmt.Sprintf("%x", sha256.Sum256(fp.Bytes()))[:16],
		}, m
	}

	// Full-instance DRC on the sparse-routed design: decompose every layer
	// and check the mask rules plus connectivity.
	drcCheck := func(sp bench.Spec) error {
		opt := router.Defaults()
		opt.SparseSearch = true
		res := router.Route(bench.Generate(sp), ds, opt)
		layouts := res.Layouts()
		results, tot := decomp.DecomposeLayers(layouts)
		if tot.Conflicts != 0 || tot.HardOverlays != 0 || tot.Violations != 0 {
			return fmt.Errorf("%s: sparse run breaks guarantees: conf=%d hard=%d viol=%d",
				sp.Name, tot.Conflicts, tot.HardOverlays, tot.Violations)
		}
		var layers []drc.Layer
		for l, ly := range layouts {
			layers = append(layers, drc.FromDecomp(ly, results[l].Materials))
		}
		if rep := drc.CheckDesign(layers, ds); !rep.Clean() {
			return fmt.Errorf("%s: DRC violations on sparse-routed design", sp.Name)
		}
		return nil
	}

	var rows []runRow
	var metrics []bench.Metrics
	for _, sp := range specs {
		for _, sparse := range [2]bool{false, true} {
			r, m := route(sp, sparse)
			rows = append(rows, r)
			metrics = append(metrics, m)
		}
		if err := drcCheck(sp); err != nil {
			return "", err
		}
	}
	if h.ledger != nil {
		h.ledger.Add("sparsehuge", metrics)
	}

	var b strings.Builder
	b.WriteString("sparsehuge — corridor search on the huge family (1 core, one run at a time)\n\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "det %-6s %-6s rt=%.1f wl=%d vias=%d conf=%d hard=%d viol=%d fingerprint=%s\n",
			r.spec.Name, r.label, r.routedPct, r.wl, r.vias, r.conf, r.hard, r.viol, r.fingerprint)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-6s %-6s %9s %10s %12s %8s %10s %9s %8s %7s\n",
		"bench", "config", "nets", "route(s)", "expansions", "sparse#", "fallbacks", "nodes", "route-x", "exp-x")
	for i := 0; i < len(rows); i += 2 {
		d, s := rows[i], rows[i+1]
		routeX := float64(d.routeWall) / float64(s.routeWall)
		expX := float64(d.expansions) / float64(s.expansions+1)
		fmt.Fprintf(&b, "%-6s %-6s %9d %10.3f %12d %8d %10d %9d %8s %7s\n",
			d.spec.Name, d.label, d.spec.Nets, d.routeWall.Seconds(), d.expansions, 0, 0, 0, "", "")
		fmt.Fprintf(&b, "%-6s %-6s %9d %10.3f %12d %8d %10d %9d %7.2fx %6.1fx\n",
			s.spec.Name, s.label, s.spec.Nets, s.routeWall.Seconds(), s.expansions,
			s.searches, s.fallbacks, s.nodes, routeX, expX)
	}
	b.WriteString("\nroute-x/exp-x = dense/sparse StageRoute wall and dense A* expansion ratios.\n")
	b.WriteString("The sparse run of every instance is decomposed and DRC-checked; a violation\n")
	b.WriteString("fails the experiment. det fingerprints are per-row reproducibility keys —\n")
	b.WriteString("dense and sparse adopt equal-cost, not identical, paths.\n")
	return b.String(), nil
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// batchFingerprint hashes everything deterministic about one pass: each
// instance's routed summary, committed paths and the recorder's counters,
// gauges and histograms (no stage timers).
func batchFingerprint(inst []instanceOutput) string {
	h := sha256.New()
	for i := range inst {
		o := &inst[i]
		fmt.Fprintf(h, "%s err=%q nets=%d routed=%d failed=%d tot=%+v\n", o.Name, o.Err, o.Nets, o.Routed, o.Failed, o.Tot)
		ids := make([]int, 0, len(o.Paths))
		for id := range o.Paths {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(h, "path %d %v\n", id, o.Paths[id])
		}
		io.WriteString(h, o.Snap.CountersString())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputsKey identifies a run's inputs: the netlist files or request
// bodies, in order.
func inputsKey(inputs [][]byte) string {
	h := sha256.New()
	for _, b := range inputs {
		fmt.Fprintf(h, "%d\n", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDeterminism reports whether every pass of this run produced the
// same fingerprint, and whether that matches the fingerprint earlier runs
// of the same binaries stored for the same inputs (traced and untraced
// runs share it). The first run stores it.
func checkDeterminism(cfg config, inputs string, prints []string) (bool, error) {
	for i, p := range prints {
		if p != prints[0] {
			fmt.Fprintf(os.Stderr, "perfbench: determinism: pass %d fingerprint %.16s differs from pass 1 %.16s\n", i+1, p, prints[0])
			return false, nil
		}
	}
	bin, err := binariesHash(cfg)
	if err != nil {
		return false, err
	}
	dir := cfg.buildDir("det")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%.16s-%.16s", cfg.workload, cfg.seed, inputs, bin))
	if b, err := os.ReadFile(path); err == nil {
		if string(b) != prints[0] {
			fmt.Fprintf(os.Stderr, "perfbench: determinism: fingerprint %.16s differs from %.16s stored by an earlier run (%s)\n", prints[0], b, path)
			return false, nil
		}
		return true, nil
	}
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(prints[0]), 0o644); err != nil {
		return false, err
	}
	return true, os.Rename(tmp, path)
}

// binariesHash identifies the code under test: the benchmark binary (which
// links the router) and the sadpd binary built next to it.
func binariesHash(cfg config) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{exe, cfg.buildDir("bin", "sadpd")} {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

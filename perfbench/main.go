// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, verifies every routed output independently of
// the router, and prints every metric by name and unit as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload congested --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	congested  Test1-s, Test2-s, Test6-s routed serially in a fresh process
//	huge       Huge1-3 routed serially in a fresh process
//	served     a closed loop of 2 clients against a child sadpd daemon
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// attaches the tracing listed in README.md and reports the per-layer
// metrics instead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"sadproute/internal/bench"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; everything written lives under root/.bench_build
}

func (c config) buildDir(elem ...string) string {
	return filepath.Join(append([]string{c.root, ".bench_build"}, elem...)...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, stdin io.Reader) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "congested | huge | served")
		seed     = fs.Int64("seed", 0, "input seed (served: job i routes generator seed 1+100*seed+i)")
		seconds  = fs.Int("seconds", 30, "measuring time per run")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = fs.String("root", "", "checkout root (set by run.sh)")
		child    = fs.Bool("child", false, "internal: route the batch instances read from standard input")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *child {
		return runChild(stdin, stdout)
	}
	if *root == "" {
		return errors.New("missing -root (run through perfbench/run.sh)")
	}
	if *seed < 0 || *seed > 1<<40 {
		return fmt.Errorf("seed %d out of range [0, 2^40]", *seed)
	}
	if *seconds < 1 {
		return fmt.Errorf("seconds must be positive, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("trace must be 0 or 1, got %d", *trace)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  float64(*seconds),
		trace:    *trace == 1,
		root:     *root,
	}
	var (
		rep report
		err error
	)
	switch cfg.workload {
	case "congested":
		rep, err = runBatch(cfg, congestedSpecs())
	case "huge":
		rep, err = runBatch(cfg, bench.HugeSpecs())
	case "served":
		rep, err = runServed(cfg)
	default:
		return fmt.Errorf("unknown workload %q (want congested, huge or served)", cfg.workload)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// quiesce returns the garbage of input generation to the system before
// measuring starts, so this process's collector and scavenger do not run
// next to the program under test.
func quiesce() { debug.FreeOSMemory() }

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

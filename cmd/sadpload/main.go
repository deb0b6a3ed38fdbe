// Command sadpload is the load generator for the sadpd daemon: it
// synthesizes benchmark netlists (internal/bench, seeded), submits them as
// routing jobs over HTTP with bounded client concurrency, follows each job
// to a terminal state (polling or SSE), and reports the outcome tally.
// The soak recipe in docs/operations.md drives it against a -race build
// of sadpd to prove N concurrent jobs compose.
//
//	sadpload -addr http://127.0.0.1:8080 -n 16 -c 4 -nets 150
//	sadpload -addr http://127.0.0.1:8080 -n 4 -sse      # follow via SSE
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sadpload:", err)
		os.Exit(1)
	}
}

// outcome tallies terminal job states client-side.
type outcome struct {
	done, failed, canceled, rejected, errored atomic.Int64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sadpload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr    = fs.String("addr", "http://127.0.0.1:8080", "sadpd base URL")
		n       = fs.Int("n", 8, "total jobs to submit")
		c       = fs.Int("c", 4, "concurrent client workers")
		nets    = fs.Int("nets", 120, "nets per generated benchmark")
		tracks  = fs.Int("tracks", 48, "die width/height in tracks")
		layers  = fs.Int("layers", 3, "routing layers")
		seed    = fs.Int64("seed", 1, "base PRNG seed; job i uses seed+i")
		useSSE  = fs.Bool("sse", false, "follow jobs over SSE instead of polling")
		timeout = fs.Duration("timeout", 5*time.Minute, "per-job completion deadline")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *n <= 0 || *c <= 0 {
		return errors.New("-n and -c must be positive")
	}

	client := &http.Client{}
	var tally outcome
	start := time.Now()
	var wg sync.WaitGroup
	var next atomic.Int64
	workers := *c
	if workers > *n {
		workers = *n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				if err := oneJob(client, *addr, i, jobSpec{
					nets: *nets, tracks: *tracks, layers: *layers,
					seed: *seed + int64(i), sse: *useSSE, timeout: *timeout,
				}, &tally); err != nil {
					tally.errored.Add(1)
					fmt.Fprintf(stdout, "job %d: %v\n", i, err)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	fmt.Fprintf(stdout, "submitted %d jobs (%d workers, %d nets x %d tracks)\n",
		*n, workers, *nets, *tracks)
	fmt.Fprintf(stdout, "done %d failed %d canceled %d rejected-retried %d client-errors %d\n",
		tally.done.Load(), tally.failed.Load(), tally.canceled.Load(),
		tally.rejected.Load(), tally.errored.Load())
	fmt.Fprintf(stdout, "wall %.2fs (%.2f jobs/s)\n", wall.Seconds(), float64(*n)/wall.Seconds())
	if tally.failed.Load() > 0 || tally.errored.Load() > 0 {
		return errors.New("some jobs did not complete")
	}
	return nil
}

type jobSpec struct {
	nets, tracks, layers int
	seed                 int64
	sse                  bool
	timeout              time.Duration
}

// oneJob generates, submits (retrying 429s per Retry-After), and follows
// one job to a terminal state.
func oneJob(client *http.Client, addr string, i int, spec jobSpec, tally *outcome) error {
	nl := bench.Generate(bench.Spec{
		Name: fmt.Sprintf("load-%d", i), Nets: spec.nets, Tracks: spec.tracks,
		Layers: spec.layers, Seed: spec.seed, PinCandidates: 1,
		AvgHPWL: spec.tracks / 4, Blockages: 2,
	})
	var nltext strings.Builder
	if err := nl.Write(&nltext); err != nil {
		return err
	}
	req := serve.Request{
		Name:    nl.Name,
		Netlist: nltext.String(),
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	deadline := time.Now().Add(spec.timeout)
	var id string
	for {
		resp, err := client.Post(addr+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tally.rejected.Add(1)
			if time.Now().After(deadline) {
				return errors.New("admission retries exhausted")
			}
			time.Sleep(time.Second)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			return fmt.Errorf("submit: %s: %s", resp.Status, msg)
		}
		var ack serve.SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			return err
		}
		id = ack.ID
		break
	}

	var state serve.State
	if spec.sse {
		state, err = followSSE(client, addr, id)
	} else {
		state, err = pollStatus(client, addr, id, deadline)
	}
	if err != nil {
		return err
	}
	switch state {
	case serve.StateDone:
		tally.done.Add(1)
	case serve.StateCanceled:
		tally.canceled.Add(1)
	default:
		tally.failed.Add(1)
	}
	return nil
}

// pollStatus polls GET /v1/jobs/{id} until the state is terminal.
func pollStatus(client *http.Client, addr, id string, deadline time.Time) (serve.State, error) {
	for {
		resp, err := client.Get(addr + "/v1/jobs/" + id)
		if err != nil {
			return "", err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if st.State.Terminal() {
			return st.State, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("job %s still %s at deadline", id, st.State)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// followSSE streams GET /v1/jobs/{id}/events until the `end` event and
// returns the terminal state it carries.
func followSSE(client *http.Client, addr, id string) (serve.State, error) {
	resp, err := client.Get(addr + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "end":
			var st serve.JobStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return "", err
			}
			return st.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("job %s: SSE stream ended without an end event", id)
}

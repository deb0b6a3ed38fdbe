// Package serve is the routing-as-a-service layer behind cmd/sadpd: a
// stdlib-only HTTP job server that accepts netlist+rules routing jobs as
// JSON, runs them on a bounded worker pool with FIFO admission control,
// and exposes status, results, cancellation and live progress (SSE over
// each job's deterministic internal/obs trace) through the API documented
// in docs/sadpd-api.md.
//
// The package is one of the sanctioned goroutine pools (sadplint
// `goroutine` rule): its worker pool mirrors internal/bench — fixed
// worker count, FIFO hand-off, results keyed by job, never by scheduling
// order. Each job routes with a private
// obs.Recorder and renders its result through RenderResultText, the same
// canonical renderer cmd/sadproute -result uses, so a job's routed result
// is byte-identical to the one-shot CLI run of the same input (proved by
// TestServeSoakByteIdentical and the CI sadpd smoke step).
//
// Determinism note: the server never reads the wall clock. Job IDs are
// sequential, journal records carry no timestamps, and drain deadlines
// come in as caller contexts (cmd/sadpd owns the timer), keeping the
// wallclock lint rule intact with zero allowances.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"sadproute/internal/obs"
	"sadproute/internal/router"
)

// Config parameterizes a Server. The zero value is usable: DefaultWorkers
// routing workers, DefaultQueueDepth queued jobs, no journal.
type Config struct {
	// Workers is the number of concurrent routing workers (jobs routed at
	// once). <= 0 selects DefaultWorkers. Each job routes on one
	// goroutine; see docs/operations.md for sizing.
	Workers int
	// QueueDepth bounds the FIFO admission queue (jobs accepted but not
	// yet running). <= 0 selects DefaultQueueDepth. A submit that finds
	// the queue full is rejected with 429 and a Retry-After header.
	QueueDepth int
	// Journal, when non-nil, receives one JSONL record per job submission
	// and per terminal transition, enabling restart recovery via Recover.
	Journal io.Writer
	// BaseCtx is the parent of every job's run context; cancelling it
	// aborts all jobs. Nil means context.Background().
	BaseCtx context.Context
}

// Defaults for Config's zero fields.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 16
	// retryAfterSeconds is the Retry-After hint on 429 responses: the
	// queue drains one routing run at a time, so "shortly" is honest and
	// a fixed value keeps responses deterministic.
	retryAfterSeconds = 1
)

// Server is the sadpd HTTP daemon core: job store + bounded worker pool +
// http.Handler. Create with New, optionally Recover a journal, then serve.
type Server struct {
	cfg   Config
	store *Store
	pool  *pool
	mux   *http.ServeMux

	draining atomic.Bool

	// Service counters for /debug/metrics (server lifecycle, not routing —
	// per-job routing metrics live in each job's obs.Recorder snapshot).
	submitted        atomic.Int64
	completed        atomic.Int64
	failed           atomic.Int64
	canceled         atomic.Int64
	rejectedFull     atomic.Int64
	rejectedDraining atomic.Int64
	running          atomic.Int64
}

// runGate, when non-nil, makes every job run block until the gate yields
// a value or the job's context is cancelled. Test hook: lets the admission
// and drain tests hold jobs "running" deterministically.
var runGate chan struct{}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.BaseCtx == nil {
		cfg.BaseCtx = context.Background()
	}
	s := &Server{
		cfg:   cfg,
		store: NewStore(cfg.Journal),
		pool:  newPool(cfg.QueueDepth),
	}
	s.mux = s.routes()
	s.pool.start(cfg.Workers, s.runJob)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Recover replays a journal written by a previous process into the store
// and re-enqueues every job that never reached a terminal state. Call
// once, before serving traffic.
func (s *Server) Recover(r io.Reader) error {
	recovered, err := s.store.Replay(r)
	if err != nil {
		return err
	}
	for _, j := range recovered {
		j.bind(s.cfg.BaseCtx)
		s.submitted.Add(1)
		if !s.pool.tryEnqueue(j) {
			s.store.Finish(j, StateFailed, "recovery: admission queue full", nil)
			s.failed.Add(1)
		}
	}
	return nil
}

// Drain performs the graceful-shutdown protocol: stop admitting (new
// submits get 503), let the workers finish every queued and running job,
// and — if ctx expires first — cancel whatever is still in flight and
// wait for the workers to observe it. It returns nil on a clean drain and
// an error naming the number of force-cancelled jobs otherwise.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.pool.close()
	done := make(chan struct{})
	go func() {
		s.pool.wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	forced := 0
	for _, j := range s.store.List() {
		if j.abort() {
			forced++
		}
	}
	<-done
	return fmt.Errorf("drain deadline exceeded: force-cancelled %d in-flight job(s)", forced)
}

// runJob executes one admitted job: claim (skipping jobs cancelled while
// queued), route under the job context, evaluate, render, finish.
func (s *Server) runJob(j *Job) {
	if !j.claim() {
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	if g := runGate; g != nil {
		select {
		case <-g:
		case <-j.ctx.Done():
		}
	}
	res, err := s.routeJob(j)
	switch {
	case err != nil && j.ctx.Err() != nil:
		s.store.Finish(j, StateCanceled, "canceled: "+j.ctx.Err().Error(), nil)
		s.canceled.Add(1)
	case err != nil:
		s.store.Finish(j, StateFailed, err.Error(), nil)
		s.failed.Add(1)
	default:
		s.store.Finish(j, StateDone, "", res)
		s.completed.Add(1)
	}
}

// routeJob runs the routing pipeline for one job — the exact sequence of
// cmd/sadproute (RouteCtx, then DecomposeLayersR on the same recorder) so
// the counters, trace and rendered result are byte-identical to the
// one-shot CLI. A panic from the routing core is converted to an error:
// one poisoned job must not take the daemon down.
func (s *Server) routeJob(j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	rec := obs.New()
	if j.traceOn {
		rec.SetTrace(j.tail)
	}
	opt := j.opt
	opt.Obs = rec
	rres, rerr := router.RouteCtx(j.ctx, j.nl, j.ds, opt)
	if rerr != nil {
		return nil, rerr
	}
	_, tot := rres.DecomposeLayersR(rec)
	snap := rec.Snapshot()
	if terr := rec.TraceErr(); terr != nil {
		return nil, fmt.Errorf("trace: %w", terr)
	}
	sum := Summarize(j.nl, rres, tot)
	return &Result{
		ID:         j.id,
		State:      StateDone,
		Summary:    sum,
		Counters:   countersMap(&snap),
		ResultText: RenderResultText(j.nl, rres, tot, &snap),
	}, nil
}

// countersMap flattens a snapshot's counters into a name->value map for
// the result JSON (encoding/json emits map keys sorted, so the rendering
// is deterministic).
func countersMap(snap *obs.Snapshot) map[string]int64 {
	m := make(map[string]int64)
	snap.EachCounter(func(name string, v int64) { m[name] = v })
	return m
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// apiError is the uniform error body (docs/sadpd-api.md "Errors").
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, apiError{Error: msg, Code: code})
}

package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sadproute/internal/bench"
	"sadproute/internal/netlist"
	"sadproute/internal/obs"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// genNetlistText renders a small generated benchmark to the text format a
// Request carries.
func genNetlistText(t *testing.T, name string, nets, tracks int, seed int64) string {
	t.Helper()
	nl := bench.Generate(bench.Spec{
		Name: name, Nets: nets, Tracks: tracks, Layers: 3,
		Seed: seed, PinCandidates: 1, AvgHPWL: tracks / 4, Blockages: 2,
	})
	var b strings.Builder
	if err := nl.Write(&b); err != nil {
		t.Fatalf("writing netlist: %v", err)
	}
	return b.String()
}

// expectedResultText routes the same netlist text in-process (the
// one-shot CLI pipeline) and renders the canonical dump.
func expectedResultText(t *testing.T, nltext string, opt router.Options) string {
	t.Helper()
	nl, err := netlist.Read(strings.NewReader(nltext))
	if err != nil {
		t.Fatalf("parsing netlist: %v", err)
	}
	rec := obs.New()
	opt.Obs = rec
	res := router.Route(nl, rules.Node10nm(), opt)
	_, tot := res.DecomposeLayersR(rec)
	snap := rec.Snapshot()
	return RenderResultText(nl, res, tot, &snap)
}

// submitJob POSTs a request and decodes the ack, failing the test on a
// non-202.
func submitJob(t *testing.T, ts *httptest.Server, req Request) SubmitResponse {
	t.Helper()
	ack, status := trySubmit(t, ts, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	return ack
}

// trySubmit POSTs a request and returns the ack (zero on rejection) and
// the HTTP status.
func trySubmit(t *testing.T, ts *httptest.Server, req Request) (SubmitResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var ack SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("decoding ack: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return ack, resp.StatusCode
}

// waitTerminal polls the status endpoint until the job reaches a terminal
// state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after deadline", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// getJSON GETs a path and decodes into v, returning the status code.
func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil && err != io.EOF {
			t.Fatalf("decoding %s: %v", path, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestSubmitRouteResult is the happy path: submit, run, fetch the result,
// and check the served result_text is byte-identical to the one-shot
// in-process pipeline on the same input.
func TestSubmitRouteResult(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	nltext := genNetlistText(t, "happy", 24, 32, 7)
	ack := submitJob(t, ts, Request{Name: "happy", Netlist: nltext})
	if ack.ID == "" || ack.State != StateQueued {
		t.Fatalf("unexpected ack: %+v", ack)
	}
	st := waitTerminal(t, ts, ack.ID)
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
	}
	if st.TraceEvents == 0 {
		t.Error("trace enabled by default, but no trace events recorded")
	}

	var res Result
	if code := getJSON(t, ts, "/v1/jobs/"+ack.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result: status %d, want 200", code)
	}
	if res.State != StateDone || res.ID != ack.ID {
		t.Fatalf("unexpected result envelope: id=%s state=%s", res.ID, res.State)
	}
	if res.Summary.Nets != 24 || res.Summary.Design != "happy" {
		t.Errorf("summary mismatch: %+v", res.Summary)
	}
	if len(res.Counters) == 0 {
		t.Error("result carries no counters")
	}

	want := expectedResultText(t, nltext, router.Defaults())
	if res.ResultText != want {
		t.Errorf("result_text diverges from the one-shot pipeline\nserved %d bytes, want %d bytes", len(res.ResultText), len(want))
	}

	// The list endpoint sees the job in admission order.
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code := getJSON(t, ts, "/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != ack.ID {
		t.Errorf("list mismatch: %+v", list.Jobs)
	}
}

// TestSubmitValidation covers the 400 paths: bad JSON, empty netlist,
// malformed netlist, a grid over netlist.MaxCells, bad rules, bad options.
func TestSubmitValidation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	post := func(body string) (int, apiError) {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		var ae apiError
		json.NewDecoder(resp.Body).Decode(&ae)
		return resp.StatusCode, ae
	}
	for name, body := range map[string]string{
		"bad JSON":          "{not json",
		"empty netlist":     `{"netlist":""}`,
		"malformed netlist": `{"netlist":"grid bogus"}`,
		"bad rules":         `{"netlist":"name x\ngrid 8 8 2\nnet a (0,0,0) -> (2,2,0)\n","rules":{"w_line":-1}}`,
		"bad options":       `{"netlist":"name x\ngrid 8 8 2\nnet a (0,0,0) -> (2,2,0)\n","options":{"max_ripup":-2}}`,
		// A negative cost weight with no expansion budget used to search
		// forever, pinning a worker past cancellation and drain.
		"negative alpha":  `{"netlist":"name x\ngrid 8 8 2\nnet a (0,0,0) -> (2,2,0)\n","options":{"alpha":-1,"max_expand":0}}`,
		"negative gamma2": `{"netlist":"name x\ngrid 8 8 2\nnet a (0,0,0) -> (2,2,0)\n","options":{"gamma2":-3}}`,
		// A grid past netlist.MaxCells used to reach BuildGrid, whose
		// 480 GB allocation killed the daemon beyond any recover.
		"huge grid": `{"netlist":"grid 200000 200000 3\nnet a (0,0,0) -> (2,2,0)\n"}`,
	} {
		code, ae := post(body)
		if code != http.StatusBadRequest || ae.Code != "bad_request" {
			t.Errorf("%s: got status %d code %q, want 400 bad_request", name, code, ae.Code)
		}
	}
	if code := getJSON(t, ts, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	if code := getJSON(t, ts, "/v1/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Errorf("unknown job result: status %d, want 404", code)
	}
}

// TestRetiredOptionIgnored pins the compatibility contract for the
// retired net_workers and decomp_cache options: submit decoding ignores
// unknown fields, so an old client's request that still carries one is
// accepted and served the same result_text as the request without it.
func TestRetiredOptionIgnored(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	nltext, err := json.Marshal(genNetlistText(t, "compat", 16, 24, 11))
	if err != nil {
		t.Fatal(err)
	}
	resultText := func(body string) string {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var ack SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("submit: status %d (%v), want 202", resp.StatusCode, err)
		}
		if st := waitTerminal(t, ts, ack.ID); st.State != StateDone {
			t.Fatalf("job ended %s (%s), want done", st.State, st.Error)
		}
		var res Result
		if code := getJSON(t, ts, "/v1/jobs/"+ack.ID+"/result", &res); code != http.StatusOK {
			t.Fatalf("result: status %d, want 200", code)
		}
		return res.ResultText
	}
	plain := resultText(`{"name":"compat","netlist":` + string(nltext) + `}`)
	for _, opts := range []string{`{"net_workers":4}`, `{"decomp_cache":false}`} {
		old := resultText(`{"name":"compat","netlist":` + string(nltext) + `,"options":` + opts + `}`)
		if old != plain {
			t.Errorf("%s changed result_text: %d bytes with it, %d without", opts, len(old), len(plain))
		}
	}
}

// gatedServer builds a server whose jobs block at the runGate until the
// test feeds the gate or cancels the job. Cleanup restores the hook after
// the pool has fully drained (no worker can still read it).
func gatedServer(t *testing.T, workers, depth int) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	runGate = gate
	srv := New(Config{Workers: workers, QueueDepth: depth})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		close(gate) // release any still-blocked jobs so the drain finishes
		srv.Drain(context.Background())
		runGate = nil
	})
	return srv, ts, gate
}

// waitState polls until the job reaches the given (possibly non-terminal)
// state.
func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		getJSON(t, ts, "/v1/jobs/"+id, &st)
		if st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueueOverflow429 fills the worker and the queue, then expects the
// next submission to be rejected with 429 + Retry-After, and admission to
// resume once the queue drains.
func TestQueueOverflow429(t *testing.T) {
	_, ts, gate := gatedServer(t, 1, 1)
	nltext := genNetlistText(t, "over", 4, 16, 3)

	running := submitJob(t, ts, Request{Netlist: nltext}) // claimed by the worker, blocked at the gate
	waitState(t, ts, running.ID, StateRunning)
	queued := submitJob(t, ts, Request{Netlist: nltext}) // fills the depth-1 queue

	body, _ := json.Marshal(Request{Netlist: nltext})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var ae apiError
	json.NewDecoder(resp.Body).Decode(&ae)
	if ae.Code != "queue_full" {
		t.Errorf("error code = %q, want queue_full", ae.Code)
	}

	var m serverMetrics
	getJSON(t, ts, "/debug/metrics", &m)
	if m.RejectedQueueFull != 1 || m.QueueDepth != 1 || m.QueueCapacity != 1 || m.JobsRunning != 1 {
		t.Errorf("metrics after overflow: %+v", m)
	}

	// Release both jobs through the gate; admission capacity returns.
	gate <- struct{}{}
	gate <- struct{}{}
	waitTerminal(t, ts, running.ID)
	waitTerminal(t, ts, queued.ID)
	retry := submitJob(t, ts, Request{Netlist: nltext})
	gate <- struct{}{}
	if st := waitTerminal(t, ts, retry.ID); st.State != StateDone {
		t.Fatalf("post-drain submit ended %s, want done", st.State)
	}
}

// TestCancelQueued cancels a job before any worker claims it: immediate
// canceled state, the worker skips it, and its result stays a 409.
func TestCancelQueued(t *testing.T) {
	_, ts, gate := gatedServer(t, 1, 2)
	nltext := genNetlistText(t, "cq", 4, 16, 5)

	running := submitJob(t, ts, Request{Netlist: nltext})
	waitState(t, ts, running.ID, StateRunning)
	queued := submitJob(t, ts, Request{Netlist: nltext})

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != StateCanceled {
		t.Fatalf("cancel queued: status %d state %s", resp.StatusCode, st.State)
	}

	// Cancelling again is a 409 already_terminal.
	resp, err = ts.Client().Post(ts.URL+"/v1/jobs/"+queued.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
	var ae apiError
	json.NewDecoder(resp.Body).Decode(&ae)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || ae.Code != "already_terminal" {
		t.Fatalf("re-cancel: status %d code %q, want 409 already_terminal", resp.StatusCode, ae.Code)
	}

	var res Result
	if code := getJSON(t, ts, "/v1/jobs/"+queued.ID+"/result", &res); code != http.StatusConflict {
		t.Errorf("canceled job result: status %d, want 409", code)
	}

	gate <- struct{}{} // release the running job; the canceled one is skipped, not run
	waitTerminal(t, ts, running.ID)
}

// TestCancelRunning cancels a claimed job: the context cancellation
// propagates into RouteCtx (the gate releases on ctx.Done) and the job
// lands canceled with no result.
func TestCancelRunning(t *testing.T) {
	_, ts, _ := gatedServer(t, 1, 2)
	nltext := genNetlistText(t, "cr", 4, 16, 9)

	running := submitJob(t, ts, Request{Netlist: nltext})
	waitState(t, ts, running.ID, StateRunning)

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs/"+running.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: status %d", resp.StatusCode)
	}
	st := waitTerminal(t, ts, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("job ended %s, want canceled", st.State)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+running.ID+"/result", nil); code != http.StatusConflict {
		t.Errorf("result after cancel: status %d, want 409", code)
	}
}

// TestDrainClean: with no work in flight, Drain returns nil, submissions
// get 503 draining, and /healthz reports draining.
func TestDrainClean(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	nltext := genNetlistText(t, "dc", 4, 16, 11)
	ack := submitJob(t, ts, Request{Netlist: nltext})
	waitTerminal(t, ts, ack.ID)

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if _, code := trySubmit(t, ts, Request{Netlist: nltext}); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", code)
	}
	var h struct {
		Status string `json:"status"`
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "draining" {
		t.Errorf("healthz status %q, want draining", h.Status)
	}
}

// TestDrainDeadline: a job held running past the drain deadline is
// force-cancelled, Drain reports it, and the job lands canceled.
func TestDrainDeadline(t *testing.T) {
	srv, ts, _ := gatedServer(t, 1, 2)
	nltext := genNetlistText(t, "dd", 4, 16, 13)

	running := submitJob(t, ts, Request{Netlist: nltext})
	waitState(t, ts, running.ID, StateRunning)

	dctx, cancel := context.WithCancel(context.Background())
	cancel() // deadline already expired: forces the abort path immediately
	err := srv.Drain(dctx)
	if err == nil || !strings.Contains(err.Error(), "force-cancelled 1") {
		t.Fatalf("drain error = %v, want force-cancelled 1", err)
	}
	st := waitTerminal(t, ts, running.ID)
	if st.State != StateCanceled {
		t.Fatalf("force-drained job ended %s, want canceled", st.State)
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id    int
	event string
	data  string
}

// readSSE parses a complete SSE stream (the job is terminal, so the
// handler writes everything and returns).
func readSSE(t *testing.T, ts *httptest.Server, path string) []sseEvent {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []sseEvent
	cur := sseEvent{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE: %v", err)
	}
	return events
}

// TestSSEEvents locks the SSE grammar: state, then one trace event per
// JSONL line with 1-based ids, then end with the terminal status; ?from
// resumes mid-stream.
func TestSSEEvents(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	nltext := genNetlistText(t, "sse", 6, 16, 17)
	ack := submitJob(t, ts, Request{Netlist: nltext})
	waitTerminal(t, ts, ack.ID)

	events := readSSE(t, ts, "/v1/jobs/"+ack.ID+"/events")
	if len(events) < 3 {
		t.Fatalf("want >= 3 events (state, traces, end), got %d", len(events))
	}
	if events[0].event != "state" {
		t.Errorf("first event %q, want state", events[0].event)
	}
	last := events[len(events)-1]
	if last.event != "end" {
		t.Fatalf("last event %q, want end", last.event)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(last.data), &st); err != nil || st.State != StateDone {
		t.Fatalf("end payload %q (err %v), want done status", last.data, err)
	}
	traces := events[1 : len(events)-1]
	for i, ev := range traces {
		if ev.event != "trace" {
			t.Fatalf("event %d is %q, want trace", i+1, ev.event)
		}
		if ev.id != i+1 {
			t.Fatalf("trace event %d has id %d, want %d", i, ev.id, i+1)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ev.data), &m); err != nil {
			t.Fatalf("trace event %d is not JSON: %v", i, err)
		}
	}
	if st.TraceEvents != len(traces) {
		t.Errorf("status reports %d trace events, stream carried %d", st.TraceEvents, len(traces))
	}

	// Resume from an offset: skip the first half of the trace.
	from := len(traces) / 2
	resumed := readSSE(t, ts, fmt.Sprintf("/v1/jobs/%s/events?from=%d", ack.ID, from))
	gotTraces := 0
	for _, ev := range resumed {
		if ev.event == "trace" {
			if gotTraces == 0 && ev.id != from+1 {
				t.Errorf("resumed stream starts at id %d, want %d", ev.id, from+1)
			}
			gotTraces++
		}
	}
	if gotTraces != len(traces)-from {
		t.Errorf("resumed stream carried %d traces, want %d", gotTraces, len(traces)-from)
	}

	// SSE on a no-trace job still delivers state and end.
	off := false
	ack2 := submitJob(t, ts, Request{Netlist: nltext, Trace: &off})
	waitTerminal(t, ts, ack2.ID)
	events2 := readSSE(t, ts, "/v1/jobs/"+ack2.ID+"/events")
	if len(events2) != 2 || events2[0].event != "state" || events2[1].event != "end" {
		t.Errorf("no-trace stream: %+v, want exactly state+end", events2)
	}

	if code := getJSON(t, ts, "/v1/jobs/"+ack.ID+"/events?from=-1", nil); code != http.StatusBadRequest {
		t.Errorf("negative from: status %d, want 400", code)
	}
}

// TestJournalRecovery replays a journal with one finished and one
// unfinished job: the finished one is restored read-only with its result,
// the unfinished one is re-enqueued and runs to completion, and new IDs
// continue after the replayed sequence.
func TestJournalRecovery(t *testing.T) {
	nltext := genNetlistText(t, "jr", 6, 16, 19)

	// Build the journal with a bare Store — no goroutines, fully
	// deterministic: submit j1, finish j1, submit j2 (never finished).
	var journal bytes.Buffer
	st := NewStore(&journal)
	j1, err := st.Add(Request{Name: "first", Netlist: nltext})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	st.Finish(j1, StateDone, "", &Result{ID: j1.id, State: StateDone, ResultText: "restored-result"})
	if _, err := st.Add(Request{Name: "second", Netlist: nltext}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := st.JournalErr(); err != nil {
		t.Fatalf("journal: %v", err)
	}

	srv := New(Config{Workers: 1, QueueDepth: 4})
	if err := srv.Recover(bytes.NewReader(journal.Bytes())); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	// j1 restored terminal, result intact.
	var res Result
	if code := getJSON(t, ts, "/v1/jobs/j1/result", &res); code != http.StatusOK {
		t.Fatalf("restored result: status %d", code)
	}
	if res.ResultText != "restored-result" {
		t.Errorf("restored result_text %q", res.ResultText)
	}

	// j2 re-enqueued and runs to done.
	if st := waitTerminal(t, ts, "j2"); st.State != StateDone {
		t.Fatalf("recovered job ended %s (%s), want done", st.State, st.Error)
	}

	// The ID sequence resumes after the replayed jobs.
	ack := submitJob(t, ts, Request{Netlist: nltext})
	if ack.ID != "j3" {
		t.Errorf("post-recovery ID %s, want j3", ack.ID)
	}
}

// TestReplayErrors covers the journal corruption paths.
func TestReplayErrors(t *testing.T) {
	nltext := genNetlistText(t, "re", 4, 16, 23)
	sub := func(id string) string {
		b, _ := json.Marshal(journalRecord{Op: "submit", ID: id, Req: Request{Netlist: nltext}})
		return string(b) + "\n"
	}
	for name, journal := range map[string]string{
		"bad JSON":    "{oops\n",
		"unknown op":  `{"op":"frobnicate","id":"j1"}` + "\n",
		"dup submit":  sub("j1") + sub("j1"),
		"orphan end":  `{"op":"end","id":"j9","state":"done"}` + "\n",
		"bad netlist": `{"op":"submit","id":"j1","req":{"netlist":"grid bogus"}}` + "\n",
	} {
		st := NewStore(nil)
		if _, err := st.Replay(strings.NewReader(journal)); err == nil {
			t.Errorf("%s: Replay accepted a corrupt journal", name)
		}
	}
}

// TestTail covers the broadcast buffer edge cases directly: partial
// writes, offsets past the end, wake-on-append, wake-on-close.
func TestTail(t *testing.T) {
	tl := newTail()
	tl.Write([]byte("alpha\nbe"))
	tl.Write([]byte("ta\n"))
	if lines, closed := tl.Lines(0); closed || len(lines) != 2 || lines[0] != "alpha" || lines[1] != "beta" {
		t.Fatalf("Lines(0) = %v closed=%v", lines, closed)
	}
	if lines, _ := tl.Lines(5); lines != nil {
		t.Errorf("Lines(5) = %v, want nil", lines)
	}

	wake := tl.Wait()
	select {
	case <-wake:
		t.Fatal("wake channel closed with no append")
	default:
	}
	tl.Write([]byte("gamma\n"))
	select {
	case <-wake:
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the subscriber")
	}

	tl.Write([]byte("partial-tail"))
	tl.Close()
	lines, closed := tl.Lines(0)
	if !closed || len(lines) != 4 || lines[3] != "partial-tail" {
		t.Fatalf("after close: lines=%v closed=%v", lines, closed)
	}
	select {
	case <-tl.Wait():
	default:
		t.Error("Wait after close should return a closed channel")
	}
	tl.Close() // idempotent
	tl.Write([]byte("late\n"))
	if n, _ := tl.Len(); n != 4 {
		t.Errorf("write after close appended: len=%d", n)
	}
}

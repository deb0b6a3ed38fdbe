package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderIsSafe exercises every method on a nil *Recorder: the
// disabled fast path must be a no-op, never a panic.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Inc(CtrRouteAttempts)
	r.Add(CtrAstarExpanded, 42)
	r.Max(GaugeAstarHeapPeak, 7)
	r.AddStage(StageRoute, time.Second)
	r.Span(StageRoute)()
	r.Trace("ev", I("k", 1))
	if r.Tracing() {
		t.Error("nil recorder reports Tracing() true")
	}
	if err := r.TraceErr(); err != nil {
		t.Errorf("nil recorder TraceErr = %v", err)
	}
	s := r.Snapshot()
	if s.Counter(CtrRouteAttempts) != 0 || s.Gauge(GaugeAstarHeapPeak) != 0 || s.Stage(StageRoute) != 0 {
		t.Error("nil recorder snapshot not zero")
	}
}

func TestCountersGaugesStages(t *testing.T) {
	r := New()
	r.Inc(CtrRouteAttempts)
	r.Add(CtrRouteAttempts, 2)
	r.Max(GaugeAstarHeapPeak, 10)
	r.Max(GaugeAstarHeapPeak, 4) // lower: must not regress
	r.AddStage(StageDecompose, 5*time.Millisecond)
	r.AddStage(StageDecompose, 5*time.Millisecond)
	stop := r.Span(StageRoute)
	stop()

	s := r.Snapshot()
	if got := s.Counter(CtrRouteAttempts); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := s.Gauge(GaugeAstarHeapPeak); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}
	if got := s.Stage(StageDecompose); got != 10*time.Millisecond {
		t.Errorf("stage = %v, want 10ms", got)
	}
	if s.Stage(StageRoute) < 0 {
		t.Error("span recorded negative duration")
	}
}

// TestEveryIDHasAName guards the parallel name tables against drift when
// new IDs are added.
func TestEveryIDHasAName(t *testing.T) {
	for i := CounterID(0); i < numCounters; i++ {
		if i.String() == "" || strings.HasPrefix(i.String(), "counter(") {
			t.Errorf("counter %d has no name", i)
		}
	}
	for i := GaugeID(0); i < numGauges; i++ {
		if i.String() == "" || strings.HasPrefix(i.String(), "gauge(") {
			t.Errorf("gauge %d has no name", i)
		}
	}
	for i := StageID(0); i < numStages; i++ {
		if i.String() == "" || strings.HasPrefix(i.String(), "stage(") {
			t.Errorf("stage %d has no name", i)
		}
	}
	if CounterID(numCounters).String() == "" {
		t.Error("out-of-range CounterID should still stringify")
	}
}

func TestTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.SetTrace(&buf)
	if !r.Tracing() {
		t.Fatal("Tracing() false after SetTrace")
	}
	r.Trace("route_attempt", I("net", 12), I("attempt", 0))
	r.Trace("ripup", I("net", 12), S("cause", "odd_cycle"))
	r.Trace("quote", S("s", `a"b\c`))

	want := `{"seq":1,"ev":"route_attempt","net":12,"attempt":0}` + "\n" +
		`{"seq":2,"ev":"ripup","net":12,"cause":"odd_cycle"}` + "\n" +
		`{"seq":3,"ev":"quote","s":"a\"b\\c"}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("trace bytes:\n got %q\nwant %q", got, want)
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Errorf("line %q is not valid JSON: %v", line, err)
		}
	}
	if r.TraceErr() != nil {
		t.Errorf("unexpected trace error: %v", r.TraceErr())
	}
	r.SetTrace(nil)
	if r.Tracing() {
		t.Error("Tracing() true after detach")
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestTraceSinkRetainsFirstError(t *testing.T) {
	r := New()
	sink := r.SetTrace(&failWriter{n: 1})
	r.Trace("ok")
	r.Trace("fails")
	r.Trace("dropped")
	if r.TraceErr() == nil {
		t.Fatal("expected retained write error")
	}
	if sink.Seq() != 2 {
		// The dropped event must not advance seq past the failure point.
		t.Errorf("seq = %d, want 2 (drop after first error)", sink.Seq())
	}
}

// TestConcurrentRecording is the package race test (run under -race in CI):
// many goroutines hammer counters, gauges, stages and the trace sink; the
// totals must be exact and the sequence numbers dense.
func TestConcurrentRecording(t *testing.T) {
	const goroutines, perG = 8, 500
	var buf bytes.Buffer
	r := New()
	r.SetTrace(&buf)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Inc(CtrAstarExpanded)
				r.Add(CtrAstarPushes, 2)
				r.Max(GaugeAstarHeapPeak, int64(g*perG+i))
				r.AddStage(StageRoute, time.Nanosecond)
				r.Trace("tick", I("g", g), I("i", i))
			}
		}(g)
	}
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counter(CtrAstarExpanded); got != goroutines*perG {
		t.Errorf("expanded = %d, want %d", got, goroutines*perG)
	}
	if got := s.Counter(CtrAstarPushes); got != 2*goroutines*perG {
		t.Errorf("pushes = %d, want %d", got, 2*goroutines*perG)
	}
	if got := s.Gauge(GaugeAstarHeapPeak); got != goroutines*perG-1 {
		t.Errorf("heap peak = %d, want %d", got, goroutines*perG-1)
	}
	if got := s.Stage(StageRoute); got != goroutines*perG*time.Nanosecond {
		t.Errorf("stage route = %v, want %v", got, goroutines*perG*time.Nanosecond)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("trace lines = %d, want %d", len(lines), goroutines*perG)
	}
	seen := make(map[int64]bool, len(lines))
	for _, line := range lines {
		var ev struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Seq < 1 || ev.Seq > int64(len(lines)) || seen[ev.Seq] {
			t.Fatalf("seq %d out of range or duplicated", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

func TestSnapshotFormatting(t *testing.T) {
	r := New()
	r.Add(CtrDecompositions, 9)
	r.Max(GaugeFlipComponentPeak, 3)
	r.AddStage(StageEvaluate, time.Millisecond)
	s := r.Snapshot()

	cs := s.CountersString()
	if !strings.Contains(cs, "decomp.decompositions") || strings.Contains(cs, "stage") {
		t.Errorf("CountersString wrong content:\n%s", cs)
	}
	full := s.String()
	if !strings.Contains(full, "stage   evaluate") {
		t.Errorf("String() missing stage line:\n%s", full)
	}
	// Two snapshots of the same registry format identically (determinism).
	s2 := r.Snapshot()
	if s.CountersString() != s2.CountersString() {
		t.Error("CountersString not stable across snapshots")
	}

	var names []string
	s.EachCounter(func(name string, v int64) { names = append(names, name) })
	if len(names) != int(numCounters) || names[0] != CtrAstarSearches.String() {
		t.Errorf("EachCounter order wrong: %v", names)
	}
	n := 0
	s.EachStage(func(string, time.Duration) { n++ })
	if n != int(numStages) {
		t.Errorf("EachStage visited %d stages, want %d", n, numStages)
	}
}

package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sadproute/internal/router"
)

// soakJobs pins the composition the acceptance bar names: at least 8
// concurrent jobs.
const soakJobs = 8

// TestServeSoakByteIdentical is the composition proof for the daemon: N
// concurrent jobs must every one produce a result_text byte-identical to
// a serial in-process route of the same input. Run under -race in CI, this
// is simultaneously the data-race soak for the pool/store/tail machinery
// and the determinism check for concurrent jobs.
func TestServeSoakByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	srv := New(Config{Workers: soakJobs, QueueDepth: soakJobs * 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	// Distinct inputs per job: different seeds and sizes, so scheduling
	// skew between jobs cannot mask a cross-job state leak.
	type jobCase struct {
		text string
		want string
	}
	cases := make([]jobCase, soakJobs)
	for i := range cases {
		text := genNetlistText(t, "soak", 16+2*i, 24+2*(i%4), int64(100+i))
		// The expected text is the one-shot CLI pipeline with the default
		// options the job will compile. The variable under test is the
		// daemon's own concurrency — eight of these in flight at once must
		// not perturb a single byte.
		cases[i] = jobCase{text: text, want: expectedResultText(t, text, router.Defaults())}
	}

	var wg sync.WaitGroup
	results := make([]string, soakJobs)
	errs := make([]error, soakJobs)
	for i := range cases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ack := submitJob(t, ts, Request{
				Name:    "soak",
				Netlist: cases[i].text,
			})
			st := waitTerminal(t, ts, ack.ID)
			if st.State != StateDone {
				errs[i] = errState{st}
				return
			}
			var res Result
			if code := getJSON(t, ts, "/v1/jobs/"+ack.ID+"/result", &res); code != http.StatusOK {
				errs[i] = errStatusCode(code)
				return
			}
			results[i] = res.ResultText
		}(i)
	}
	wg.Wait()

	for i := range cases {
		if errs[i] != nil {
			t.Errorf("job %d: %v", i, errs[i])
			continue
		}
		if results[i] != cases[i].want {
			t.Errorf("job %d: served result_text (%d bytes) diverges from the serial in-process route (%d bytes)",
				i, len(results[i]), len(cases[i].want))
		}
	}
}

type errState struct{ st JobStatus }

func (e errState) Error() string { return "job ended " + string(e.st.State) + ": " + e.st.Error }

type errStatusCode int

func (e errStatusCode) Error() string { return "result endpoint status " + http.StatusText(int(e)) }

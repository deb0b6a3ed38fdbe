package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	"sadproute/internal/netlist"
	"sadproute/internal/router"
)

// FuzzServeRequest feeds fuzzed POST /v1/jobs bodies through what
// handleSubmit does before it admits a job: json.Unmarshal into a Request,
// then compileRequest. Neither may panic. A body either step refuses gets
// 400 bad_request from the handler itself. An accepted body carries a
// netlist that passes Validate and survives Write and Read unchanged, and
// options that pass router.Options.Validate.
func FuzzServeRequest(f *testing.F) {
	example, err := os.ReadFile("../../examples/api/request.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, seed := range []string{
		// a grid past netlist.MaxCells
		`{"netlist":"grid 200000 200000 3\nnet a (0,0,0) -> (2,2,0)\n"}`,
		// negative option values
		`{"netlist":"name x\ngrid 8 8 2\nnet a (0,0,0) -> (2,2,0)\n","options":{"alpha":-1,"max_ripup":-2,"max_expand":-3,"flip_threshold_nm":-4}}`,
		`{"netlist":"name x\ngrid 8 8 2\nnet a (0,0,0) -> (2,2,0)\n","rules":{"w_line":-1,"d_cut":-5}}`,
		// empty netlists: no text, and a grid without nets
		`{"netlist":""}`,
		`{"netlist":"name e\ngrid 8 8 2\n"}`,
		// bodies that are not a Request
		`{}`, `null`, `[]`, `{"netlist":7}`, `{not json`,
	} {
		f.Add([]byte(seed))
	}
	srv := New(Config{Workers: 1, QueueDepth: 1})
	f.Cleanup(func() { srv.Drain(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		var nl *netlist.Netlist
		var opt router.Options
		err := json.Unmarshal(body, &req)
		if err == nil {
			nl, _, opt, err = compileRequest(req)
		}
		if err != nil {
			// A refused body never reaches the queue, so the handler can
			// answer it here without routing anything.
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
			var ae apiError
			if json.Unmarshal(w.Body.Bytes(), &ae) != nil || w.Code != http.StatusBadRequest || ae.Code != "bad_request" {
				t.Fatalf("refused (%v), but the handler answered %d %s", err, w.Code, w.Body.Bytes())
			}
			return
		}
		if err := nl.Validate(); err != nil {
			t.Fatalf("accepted netlist fails Validate: %v", err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("accepted options fail Validate: %v", err)
		}
		var text bytes.Buffer
		if err := nl.Write(&text); err != nil {
			t.Fatal(err)
		}
		back, err := netlist.Read(&text)
		if err != nil {
			t.Fatalf("Read of Write's output: %v", err)
		}
		if !reflect.DeepEqual(back, nl) {
			t.Fatalf("round trip changed the netlist:\naccepted %+v\nread     %+v", nl, back)
		}
	})
}

package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"sadproute/internal/serve"
)

// TestLoadPolling drives the generator against an in-process server with
// the polling follower and checks the tally.
func TestLoadPolling(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-n", "3", "-c", "2",
		"-nets", "8", "-tracks", "16",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done 3 failed 0 canceled 0") {
		t.Errorf("unexpected tally:\n%s", out.String())
	}
}

// TestLoadSSE follows jobs over the events stream instead of polling.
func TestLoadSSE(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-n", "2", "-c", "2",
		"-nets", "8", "-tracks", "16", "-sse",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done 2 failed 0") {
		t.Errorf("unexpected tally:\n%s", out.String())
	}
}

// TestLoadRetriesQueueFull exercises the 429-retry path: one worker, a
// depth-1 queue and more client concurrency than capacity force
// admission rejections that the generator must absorb.
func TestLoadRetriesQueueFull(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain(context.Background())

	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-n", "6", "-c", "6",
		"-nets", "6", "-tracks", "16",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done 6 failed 0") {
		t.Errorf("unexpected tally:\n%s", out.String())
	}
}

// TestLoadFlags covers the CLI error paths.
func TestLoadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil {
		t.Errorf("-h: %v", err)
	}
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Error("-n 0 accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

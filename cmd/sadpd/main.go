// Command sadpd is the routing-as-a-service daemon: a long-lived HTTP
// server that accepts netlist+rules routing jobs as JSON, runs them on a
// bounded worker pool, and streams per-job progress over SSE. API
// reference: docs/sadpd-api.md; operations runbook: docs/operations.md.
//
//	sadpd -addr :8080 -workers 4 -queue 32
//	sadpd -addr :8080 -journal jobs.jsonl      # restart recovery
//
// SIGINT/SIGTERM triggers a graceful drain: new submissions get 503,
// queued and running jobs finish (or are cancelled at -drain-timeout),
// then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sadproute/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "sadpd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it serves until a value arrives on
// sig (tests send on their own channel; main wires SIGINT/SIGTERM), then
// drains and shuts down.
func run(args []string, stdout io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("sadpd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers      = fs.Int("workers", serve.DefaultWorkers, "concurrent routing jobs (see docs/operations.md for sizing)")
		queue        = fs.Int("queue", serve.DefaultQueueDepth, "admission queue depth; full queue answers 429 + Retry-After")
		journal      = fs.String("journal", "", "append-only JSONL job journal; replayed on startup for restart recovery")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM before in-flight jobs are cancelled")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	cfg := serve.Config{Workers: *workers, QueueDepth: *queue}
	var jf *os.File
	if *journal != "" {
		var err error
		jf, err = os.OpenFile(*journal, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		defer jf.Close()
		cfg.Journal = jf
	}
	srv := serve.New(cfg)
	if jf != nil {
		// Replay the existing journal, then leave the offset at EOF so new
		// records append after the replayed ones.
		if err := srv.Recover(jf); err != nil {
			return fmt.Errorf("replaying journal %s: %w", *journal, err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sadpd listening on %s (workers=%d queue=%d)\n", ln.Addr(), *workers, *queue)

	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-sig:
	}
	fmt.Fprintf(stdout, "sadpd draining (timeout %s)\n", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(stdout, "sadpd drain: %v\n", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
	}
	fmt.Fprintln(stdout, "sadpd stopped")
	return nil
}

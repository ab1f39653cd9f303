// Command smiserve runs the multi-tenant sweep service: an HTTP/JSON
// front end over the durable cell runner (internal/serve). Submissions
// — single scenario cells or declarative parameter grids — are
// validated, content-addressed and deduplicated against both the
// persistent store and in-flight work, then executed across a bounded
// worker fleet behind a weighted fair queue with admission control.
//
// Usage:
//
//	smiserve -addr 127.0.0.1:8080 -store results/store
//	smiserve -addr 127.0.0.1:0 -addr-file /tmp/addr   # ephemeral port
//
// Endpoints:
//
//	POST /v1/sweeps              submit specs and/or a grid (202, or 429 + Retry-After)
//	GET  /v1/sweeps/{id}         job status with per-spec measurements
//	GET  /v1/sweeps/{id}/events  SSE progress stream (history + live)
//	GET  /v1/results/{hash}      every stored run of one content address
//	GET  /healthz /readyz /metricsz
//
// A store that fails to open degrades the server instead of crashing
// it: /healthz stays 200 while /readyz and submissions report 503, so
// an orchestrator holds traffic and retries readiness.
//
// On SIGINT the server stops accepting connections, drains in-flight
// cells and writes the -manifest with its lifetime serve/durable
// accounting.
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
	"time"

	"smistudy/internal/obs"
	"smistudy/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smiserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	storeDir := fs.String("store", "", "content-addressed result store directory (empty: memory-only, nothing survives a restart)")
	workers := fs.Int("workers", 0, "execution worker fleet size (0 = one per CPU)")
	maxQueued := fs.Int("max-queued", 0, "admitted unfinished cells before 429 (0 = 4096)")
	cellTimeout := fs.Duration("cell-timeout", 0, "wall-clock deadline per cell (0 = none)")
	retries := fs.Int("retries", 0, "re-run transiently-failed cells up to this many times")
	manifestOut := fs.String("manifest", "", "write the server's lifetime accounting manifest here at shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "smiserve:", err)
		return 1
	}

	cfg := serve.Config{
		StoreDir:    *storeDir,
		Workers:     *workers,
		MaxQueued:   *maxQueued,
		CellTimeout: *cellTimeout,
		Retries:     *retries,
	}

	// The manifest is captured up front (flags + versions) and written at
	// shutdown with the serve/durable accounting attached. Output flags
	// are excluded so a replayed configuration can choose its own.
	manifest := obs.Capture("smiserve", fs, "addr", "addr-file", "manifest")

	srv := serve.New(cfg)
	if err := srv.Ready(); err != nil {
		// Degraded, not dead: keep serving so /readyz reports the reason,
		// exactly as the orchestrator contract wants.
		fmt.Fprintf(stderr, "smiserve: store unavailable, serving degraded: %v\n", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return fail(err)
		}
	}
	fmt.Fprintf(stderr, "smiserve: listening on %s\n", bound)

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "smiserve: shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			fmt.Fprintln(stderr, "smiserve: shutdown:", err)
			code = 1
		}
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			return fail(err)
		}
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "smiserve: store close:", err)
		code = 1
	}

	stats := srv.Stats()
	manifest.Serve = &stats
	manifest.Durable = srv.DurableStats()
	fmt.Fprintf(stderr, "smiserve: %d submissions, %d cells (%d executed, %d cached, %d coalesced, %d failed), dedup %.0f%%\n",
		stats.Submissions, stats.Cells, stats.Executed, stats.Cached,
		stats.Coalesced, stats.Failed, 100*stats.DedupRate())
	if *manifestOut != "" {
		data, err := manifest.JSON()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*manifestOut, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "  manifest → %s\n", *manifestOut)
	}
	return code
}

// Command dvz-server runs the DejaVuzz campaign service: a multi-tenant
// HTTP server that schedules concurrent fuzzing campaigns over a bounded
// shared worker budget, streams live session events, and triages findings
// into a deduplicated persistent bug store.
//
// Usage:
//
//	dvz-server [-addr :8471] [-state dvz-state] [-workers N]
//
// All state lives under the -state directory: the campaign registry,
// per-campaign barrier checkpoints, final reports, the triaged findings
// store, and the persistent cross-campaign corpus (harvested seeds plus
// their coverage-frontier statistics, served at /corpus). On SIGTERM/SIGINT
// the server checkpoints every active campaign at its next merge barrier
// before exiting; the next start with the same -state resumes them
// automatically, byte-identically (modulo wall-clock fields) to an
// uninterrupted run — and new campaigns created with "warm_start": true
// seed themselves from everything earlier campaigns harvested.
//
// See the README's "Running as a service" section for curl examples of
// every endpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dejavuzz/internal/server"
)

func main() {
	addr := flag.String("addr", ":8471", "HTTP listen address")
	state := flag.String("state", "dvz-state", "state directory (registry, checkpoints, reports, findings, corpus)")
	workers := flag.Int("workers", runtime.NumCPU(), "shared worker budget across all campaigns")
	flag.Parse()

	logger := log.New(os.Stderr, "dvz-server: ", log.LstdFlags)
	srv, err := server.Open(server.Config{StateDir: *state, Workers: *workers, Log: logger})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Printf("listening on http://%s (state=%s, workers=%d)", ln.Addr(), *state, *workers)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Printf("http: %v", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop()
	logger.Printf("shutting down: checkpointing active campaigns at their next merge barrier")

	// Campaigns first: once their sessions park, event streams close and
	// the HTTP shutdown below drains naturally.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("campaign shutdown: %v", err)
	}
	cancel()
	httpCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		httpSrv.Close()
	}
	cancel()
	logger.Printf("bye")
}

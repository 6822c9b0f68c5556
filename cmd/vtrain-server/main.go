// Command vtrain-server runs the vTrain simulator as a long-lived HTTP
// service. Unlike the one-shot CLIs, its simulator tree keeps report and
// structural caches warm across requests, so a team hammering the same
// models concentrates onto shared lowered graphs instead of each request
// paying cold lowering.
//
// Endpoints:
//
//	POST /v1/simulate    one configuration; body is a descfile description,
//	                     response is the exact `vtrain -json` report
//	POST /v1/sweep       plan-space sweep; streams NDJSON points + summary
//	POST /v1/clusterdse  joint (hardware x plan) sweep; streams NDJSON
//	GET  /healthz        liveness (503 while draining)
//	GET  /metrics        Prometheus text: cache counters, request counts,
//	                     latency histograms
//
// Usage:
//
//	vtrain-server [-addr :8080] [-max-sweeps 4] [-simulate-timeout 2m]
//
// SIGINT/SIGTERM drain gracefully: health checks fail first, then the
// listener closes once in-flight requests (including streaming sweeps)
// finish, bounded by -drain-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vtrain/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vtrain-server: ")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], log.Default(), sig, nil); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command behind a testable seam: tests drive it
// in-process with a private signal channel and an onReady hook that
// reports the bound address (so -addr 127.0.0.1:0 smoke tests can find
// the listener). A value on sig starts the graceful drain; a clean drain
// returns nil.
func run(args []string, logger *log.Logger, sig <-chan os.Signal, onReady func(net.Addr)) error {
	fs := flag.NewFlagSet("vtrain-server", flag.ContinueOnError)
	fs.SetOutput(logger.Writer())
	addr := fs.String("addr", ":8080", "listen address")
	maxSweeps := fs.Int("max-sweeps", 4, "max concurrently executing sweep streams (excess gets 429)")
	simTimeout := fs.Duration("simulate-timeout", 2*time.Minute, "per-request /v1/simulate timeout")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "how long shutdown waits for in-flight requests")
	maxBody := fs.Int64("max-body-bytes", 1<<20, "request body size limit")
	cacheDir := fs.String("cache-dir", "", "persistent structural-artifact cache directory (empty = no disk cache)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var eng *server.Engine
	if *cacheDir != "" {
		eng = server.NewEngine(server.WithArtifactDir(*cacheDir))
	}
	srv := server.New(server.Config{
		Engine:            eng,
		MaxBodyBytes:      *maxBody,
		SimulateTimeout:   *simTimeout,
		MaxInflightSweeps: *maxSweeps,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s", l.Addr())
	if onReady != nil {
		onReady(l.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case err := <-done:
		return err
	case s := <-sig:
		logger.Printf("received %v, draining (timeout %v)", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Printf("drained cleanly")
		return nil
	}
}

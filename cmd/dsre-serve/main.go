// dsre-serve runs the sweep engine as a long-lived service.
//
// The daemon accepts sweep grids over HTTP/JSON (dsre-serve/v1), dedups
// submitted points into content-addressed unique jobs, runs them on an
// in-process sweep engine, and serves result artifacts, live progress
// and Prometheus metrics:
//
//	dsre-serve -addr :8177 -cache .dsre-cache -local-workers 4
//
// SIGTERM drains gracefully: submits are refused, the engine batch in
// flight finishes, every sweep's manifest flushes to -manifest-dir, the
// structured serve_drain event is emitted, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsre-serve: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", ":8177", "daemon listen address")
	cache := flag.String("cache", ".dsre-cache", "content-addressed result cache directory")
	localWorkers := flag.Int("local-workers", runtime.GOMAXPROCS(0), "engine workers (at least 1)")
	manifestDir := flag.String("manifest-dir", "", "write one sweep manifest per sweep here on drain (empty disables)")
	eventsPath := flag.String("events", "", "write a dsre-events/v3 JSONL lifecycle log (empty disables)")
	spanTrace := flag.String("span-trace", "", "write lifecycle spans as a Chrome trace on exit (empty disables)")
	slowRequest := flag.Duration("slow-request", 0, "emit a slow_request event for HTTP requests slower than this (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight work")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock budget (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts per failed job")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *localWorkers < 1 {
		fatalf("-local-workers must be at least 1 (the daemon runs every job itself)")
	}

	store, err := sweep.OpenStore(*cache)
	if err != nil {
		fatalf("%v", err)
	}
	var sink obs.EventSink
	var jsonl *obs.JSONLSink
	var eventsFile *os.File
	if *eventsPath != "" {
		f, ferr := os.Create(*eventsPath)
		if ferr != nil {
			fatalf("%v", ferr)
		}
		eventsFile = f
		jsonl = obs.NewJSONLSink(f)
		sink = jsonl
	}
	// The span log is always on: it feeds GET /v1/sweeps/{id}/trace.
	// -span-trace only controls the exit-time Chrome-trace file export.
	spans := obs.NewSpanLog()
	engObs := obs.NewSweepObs(time.Now(), sink, spans)
	engine := sweep.New(sweep.Options{
		Workers: *localWorkers, Timeout: *timeout, Retries: *retries,
		Store: store, Obs: engObs,
	})
	srv, err := serve.New(serve.Config{
		Store: store, Engine: engine, Obs: engObs,
		ManifestDir: *manifestDir,
		Sink:        sink, SlowRequest: *slowRequest,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dsre-serve: daemon on http://%s (cache %s, %d engine workers)\n",
		ln.Addr(), *cache, *localWorkers)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "dsre-serve: %s, draining (up to %s)\n", sig, *drainTimeout)
	case err := <-httpDone:
		fatalf("http server: %v", err)
	}

	// Drain with the HTTP surface still up, so final /progress and sweep
	// scrapes land during the window.  Then stop serving.
	abandoned := srv.Drain("sigterm", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dsre-serve: shutdown: %v\n", err)
	}

	if *spanTrace != "" {
		if f, ferr := os.Create(*spanTrace); ferr == nil {
			_ = spans.WriteChromeTrace(f)
			_ = f.Close()
		}
	}
	if eventsFile != nil {
		if jerr := jsonl.Err(); jerr != nil {
			fmt.Fprintf(os.Stderr, "dsre-serve: event log degraded: %v\n", jerr)
		}
		_ = eventsFile.Close()
	}
	fmt.Fprintf(os.Stderr, "dsre-serve: drained (%d queued jobs abandoned)\n", abandoned)
}

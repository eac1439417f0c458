// dsre-serve runs the sweep engine as a long-lived service.
//
// Daemon mode (the default) accepts sweep grids over HTTP/JSON
// (dsre-serve/v1), dedups submitted points into content-addressed unique
// jobs, executes them on an in-process engine and/or a fleet of remote
// workers, and serves result artifacts, live progress and Prometheus
// metrics:
//
//	dsre-serve -addr :8177 -cache .dsre-cache -local-workers 4
//	dsre-serve -addr :8177 -cache .dsre-cache -local-workers 0   # fleet-only
//
// Worker mode joins a daemon's fleet: lease a job, heartbeat while it
// runs, upload the sealed result, repeat.  Workers are stateless — kill
// one mid-job and the daemon's lease expiry requeues the work elsewhere:
//
//	dsre-serve -worker -join http://daemon:8177 -id w1 -jobs 2
//
// SIGTERM drains gracefully: submits and leases are refused, in-flight
// work finishes, every sweep's manifest flushes to -manifest-dir, the
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
	"repro/internal/sim"
	"repro/internal/sweep"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsre-serve: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	// Daemon flags.
	addr := flag.String("addr", ":8177", "daemon listen address")
	cache := flag.String("cache", ".dsre-cache", "content-addressed result cache directory")
	localWorkers := flag.Int("local-workers", runtime.GOMAXPROCS(0), "in-process execution workers (0 = fleet-only daemon)")
	batch := flag.Int("batch", 8, "max jobs per local engine batch")
	batchLinger := flag.Duration("batch-linger", 25*time.Millisecond, "wait after first queued job so a burst coalesces into one batch")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "fleet lease heartbeat deadline")
	maxAttempts := flag.Int("max-attempts", 3, "lease grants per job before it fails terminally")
	manifestDir := flag.String("manifest-dir", "", "write one sweep manifest per sweep here on drain (empty disables)")
	eventsPath := flag.String("events", "", "write a dsre-events/v2 JSONL lifecycle log (empty disables)")
	spanTrace := flag.String("span-trace", "", "write lifecycle spans as a Chrome trace on exit (empty disables)")
	slowRequest := flag.Duration("slow-request", 0, "emit a slow_request event for HTTP requests slower than this (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight work")

	// Execution flags shared by both modes.
	timeout := flag.Duration("timeout", 0, "per-job wall-clock budget (0 = none)")
	retries := flag.Int("retries", 0, "engine-level extra attempts per failed job")

	// Worker-mode flags.
	worker := flag.Bool("worker", false, "run as a fleet worker instead of a daemon")
	join := flag.String("join", "", "daemon base URL to join (worker mode)")
	id := flag.String("id", "", "worker name (default host-pid)")
	jobs := flag.Int("jobs", 1, "concurrent jobs per worker (worker mode)")
	poll := flag.Duration("poll", 200*time.Millisecond, "idle lease-poll interval (worker mode)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}

	if *worker {
		runWorker(*join, *id, *jobs, *poll, *timeout, *retries)
		return
	}
	runDaemon(daemonConfig{
		addr: *addr, cache: *cache, localWorkers: *localWorkers,
		batch: *batch, batchLinger: *batchLinger,
		leaseTTL: *leaseTTL, maxAttempts: *maxAttempts,
		manifestDir: *manifestDir, eventsPath: *eventsPath, spanTrace: *spanTrace,
		slowRequest:  *slowRequest,
		drainTimeout: *drainTimeout, timeout: *timeout, retries: *retries,
	})
}

type daemonConfig struct {
	addr, cache           string
	localWorkers, batch   int
	batchLinger           time.Duration
	leaseTTL              time.Duration
	maxAttempts           int
	manifestDir           string
	eventsPath, spanTrace string
	slowRequest           time.Duration
	drainTimeout, timeout time.Duration
	retries               int
}

func runDaemon(c daemonConfig) {
	store, err := sweep.OpenStore(c.cache)
	if err != nil {
		fatalf("%v", err)
	}

	start := time.Now()
	reg := obs.NewRegistry()
	var sink obs.EventSink
	var jsonl *obs.JSONLSink
	var eventsFile *os.File
	if c.eventsPath != "" {
		f, ferr := os.Create(c.eventsPath)
		if ferr != nil {
			fatalf("%v", ferr)
		}
		eventsFile = f
		jsonl = obs.NewJSONLSink(f)
		sink = jsonl
	}
	// The span log is always on in daemon mode: it feeds the stitched
	// GET /v1/sweeps/{id}/trace endpoint.  -span-trace only controls the
	// exit-time Chrome-trace file export.
	spans := obs.NewSpanLog()

	// One registry, one event stream, one span log for both layers: the
	// engine's job lifecycle and the daemon's queue/lease/upload protocol.
	engObs := obs.NewSweepObsInto(reg, start, sink, spans)
	srvObs := obs.NewServeObs(reg, start, sink, spans, maxInt(c.localWorkers, 0))

	var engine *sweep.Engine
	if c.localWorkers > 0 {
		engine = sweep.New(sweep.Options{
			Workers: c.localWorkers, Timeout: c.timeout, Retries: c.retries,
			Store: store, Obs: engObs,
		})
	}

	srv, err := serve.New(serve.Config{
		Store: store, Obs: srvObs, Engine: engine, EngineObs: engObs,
		LeaseTTL: c.leaseTTL, MaxAttempts: c.maxAttempts,
		BatchMax: c.batch, BatchLinger: c.batchLinger,
		ManifestDir: c.manifestDir,
		Sink:        sink, SlowRequest: c.slowRequest,
	})
	if err != nil {
		fatalf("%v", err)
	}
	srv.Start()

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		fatalf("%v", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "dsre-serve: daemon on http://%s (cache %s, local workers %d, lease ttl %s)\n",
		ln.Addr(), c.cache, c.localWorkers, c.leaseTTL)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "dsre-serve: %s, draining (up to %s)\n", sig, c.drainTimeout)
	case err := <-httpDone:
		fatalf("http server: %v", err)
	}

	// Drain with the HTTP surface still up: in-flight fleet uploads and
	// final /progress scrapes land during the window.  Then stop serving.
	abandoned := srv.Drain("sigterm", c.drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dsre-serve: shutdown: %v\n", err)
	}

	if c.spanTrace != "" {
		if f, ferr := os.Create(c.spanTrace); ferr == nil {
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

func runWorker(join, id string, jobs int, poll, timeout time.Duration, retries int) {
	if join == "" {
		fatalf("-worker needs -join http://daemon:port")
	}
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	// The worker records its own span chains (queue-wait, prepare, run
	// attempts, upload) and ships them to the daemon with each completed
	// job for cross-process trace stitching.
	wspans := obs.NewSpanLog()
	wobs := obs.NewSweepObsInto(obs.NewRegistry(), time.Now(), nil, wspans)
	engine := sweep.New(sweep.Options{Workers: jobs, Timeout: timeout, Retries: retries, Obs: wobs})
	w, err := serve.NewWorker(serve.WorkerOptions{
		BaseURL: join, ID: id, Engine: engine, Concurrency: jobs, Poll: poll, Spans: wspans,
	})
	if err != nil {
		fatalf("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if hv, herr := w.DaemonHealth(ctx); herr == nil {
		fmt.Fprintf(os.Stderr, "dsre-serve: daemon at %s runs sim %s (%s)\n", join, hv.SimVersion, hv.GoVersion)
		if hv.SimVersion != "" && hv.SimVersion != sim.Version {
			fmt.Fprintf(os.Stderr, "dsre-serve: WARNING: version skew — worker runs sim %s; uploads will be rejected\n", sim.Version)
		}
	} else {
		fmt.Fprintf(os.Stderr, "dsre-serve: healthz probe failed (%v); joining anyway\n", herr)
	}
	fmt.Fprintf(os.Stderr, "dsre-serve: worker %s joined %s (%d jobs)\n", id, join, jobs)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dsre-serve: worker %s: %v\n", id, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dsre-serve: worker %s exiting after %d jobs\n", id, w.JobsDone())
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

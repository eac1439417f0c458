// dsre-sweep runs an experiment grid through the sweep engine: every grid
// point becomes a deterministic job (workload, scheme, machine config,
// seed), jobs execute on a bounded worker pool, and results land in a
// content-addressed cache so an interrupted or edited sweep only pays for
// the points that actually changed.
//
// Usage:
//
//	dsre-sweep -grid grid.json                    # declarative cross product
//	dsre-sweep -workloads vecsum,histogram -schemes dsre,oracle -sizes 256
//	dsre-sweep -cache .dsre-cache -jobs 8 -retries 1 -timeout 10m
//	dsre-sweep -manifest sweep-manifest.json -reports out/
//	dsre-sweep -resume sweep-manifest.json        # re-run a prior sweep's grid
//
// The -grid JSON is a sweep.Grid: named axes multiply (cross product) and
// an explicit "specs" list appends hand-picked points.  Axis flags given
// alongside -grid are rejected — one source of truth per sweep.
//
// -resume replays the grid recorded in a previous run's manifest.  With
// the same -cache, finished points are cache hits and only unfinished or
// failed points compute; the new manifest supersedes the old one.
//
// Each completed point can be written to -reports as a standalone
// dsre-report/v1 artifact named <workload>-<scheme>-<hash12>.json; the
// manifest records every job's spec, hash, status and timing, and the
// process exits nonzero if any job failed.  SIGINT and SIGTERM cancel
// in-flight jobs but still write the manifest, so a ^C'd (or batch-
// scheduler-killed) sweep is resumable.
//
// Observability is opt-in: -events sweep.events writes a dsre-events/v4
// JSONL lifecycle log; -span-trace sweep-trace.json exports per-job
// lifecycle spans as a Chrome trace with one lane per worker (open in
// chrome://tracing or Perfetto).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sweep"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsre-sweep: "+format+"\n", args...)
	os.Exit(2)
}

// splitList parses a comma-separated flag value, ignoring empty items.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func splitInts(name, s string) []int {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			fatalf("-%s: %q is not an integer", name, f)
		}
		out = append(out, n)
	}
	return out
}

func splitUints(name, s string) []uint64 {
	var out []uint64
	for _, f := range splitList(s) {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			fatalf("-%s: %q is not an unsigned integer", name, f)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	gridPath := flag.String("grid", "", "grid definition JSON (sweep.Grid); exclusive with axis flags")
	resume := flag.String("resume", "", "re-run the grid recorded in this sweep manifest")

	workloads := flag.String("workloads", "", "comma-separated workload axis")
	schemes := flag.String("schemes", "", "comma-separated scheme axis")
	sizes := flag.String("sizes", "", "comma-separated workload-size axis")
	seeds := flag.String("seeds", "", "comma-separated seed axis")
	frames := flag.String("frames", "", "comma-separated in-flight-block axis")
	hops := flag.String("hop-latencies", "", "comma-separated mesh hop-latency axis")
	sampleEvery := flag.Int("sample-every", 0, "per-point time-series sampling interval (cycles; 0 disables)")

	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock budget (0 = none)")
	retries := flag.Int("retries", 0, "extra attempts per failed job")
	cache := flag.String("cache", "", "content-addressed result cache directory (empty disables)")
	manifest := flag.String("manifest", "sweep-manifest.json", "manifest output path (empty disables)")
	reports := flag.String("reports", "", "directory for per-point dsre-report/v1 artifacts (empty disables)")
	quiet := flag.Bool("q", false, "suppress per-job progress on stderr")
	eventsPath := flag.String("events", "", "write a dsre-events/v4 JSONL lifecycle log to this path (empty disables)")
	spanTrace := flag.String("span-trace", "", "write per-job lifecycle spans as a Chrome trace to this path (empty disables)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q (axes are flags, not positional)", flag.Args())
	}

	axisFlags := *workloads != "" || *schemes != "" || *sizes != "" ||
		*seeds != "" || *frames != "" || *hops != ""

	// Resolve the grid: a manifest to resume, a grid file, or axis flags.
	var specs []sweep.JobSpec
	switch {
	case *resume != "":
		if *gridPath != "" || axisFlags {
			fatalf("-resume already fixes the grid; drop -grid and axis flags")
		}
		m, err := sweep.ReadManifest(*resume)
		if err != nil {
			var se *sweep.SchemaError
			if errors.As(err, &se) && se.Newer() {
				fatalf("cannot resume: %v", se)
			}
			fatalf("%v", err)
		}
		specs = m.Specs()
	case *gridPath != "":
		if axisFlags {
			fatalf("-grid and axis flags are exclusive; put the axes in the grid file")
		}
		g, err := sweep.ReadGrid(*gridPath)
		if err != nil {
			fatalf("%v", err)
		}
		if specs, err = g.Expand(); err != nil {
			fatalf("%v", err)
		}
	default:
		g := sweep.Grid{
			Workloads:    splitList(*workloads),
			Schemes:      splitList(*schemes),
			Sizes:        splitInts("sizes", *sizes),
			Seeds:        splitUints("seeds", *seeds),
			Frames:       splitInts("frames", *frames),
			HopLatencies: splitInts("hop-latencies", *hops),
			SampleEvery:  *sampleEvery,
		}
		var err error
		if specs, err = g.Expand(); err != nil {
			fatalf("%v (try -workloads ... or -grid grid.json)", err)
		}
	}

	opts := sweep.Options{Workers: *jobs, Timeout: *timeout, Retries: *retries}
	if *cache != "" {
		st, err := sweep.OpenStore(*cache)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Store = st
	}
	if !*quiet {
		opts.Progress = sweep.NewReporter(os.Stderr, *jobs)
	}

	// Observability: both surfaces are opt-in and disabled hooks
	// cost the engine one nil check, so a bare sweep stays byte-identical.
	var sink *obs.JSONLSink
	var eventsFile *os.File
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fatalf("%v", err)
		}
		eventsFile = f
		sink = obs.NewJSONLSink(f)
	}
	var spans *obs.SpanLog
	if *spanTrace != "" {
		spans = obs.NewSpanLog()
	}
	if sink != nil || spans != nil {
		// The sink interface value must be nil when no log was requested;
		// wrapping a nil *JSONLSink would produce a non-nil interface.
		var s obs.EventSink
		if sink != nil {
			s = sink
		}
		opts.Obs = obs.NewSweepObs(time.Now(), s, spans)
	}

	// SIGINT and SIGTERM cancel in-flight jobs; the manifest below still
	// records what finished, so the sweep can be resumed.  SIGTERM matters
	// for batch schedulers, which never send an interactive interrupt.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sum, runErr := sweep.New(opts).Run(ctx, specs)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dsre-sweep: interrupted: %v\n", runErr)
	}

	if *manifest != "" {
		if err := sweep.NewManifest(sum).WriteFile(*manifest); err != nil {
			fatalf("%v", err)
		}
	}
	if *reports != "" {
		if err := os.MkdirAll(*reports, 0o755); err != nil {
			fatalf("%v", err)
		}
		for _, j := range sum.Jobs {
			if j.Status != sweep.StatusOK || j.Report == nil {
				continue
			}
			name := fmt.Sprintf("%s-%s-%s.json",
				j.Spec.Workload, strings.ReplaceAll(j.Spec.Scheme, "+", "_"), j.Hash[:12])
			if err := j.Report.WriteFile(filepath.Join(*reports, name)); err != nil {
				fatalf("%v", err)
			}
		}
	}

	if spans != nil {
		f, err := os.Create(*spanTrace)
		if err != nil {
			fatalf("%v", err)
		}
		if err := spans.WriteChromeTrace(f); err != nil {
			fatalf("span trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("span trace: %v", err)
		}
	}
	if eventsFile != nil {
		if err := sink.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "dsre-sweep: event log degraded: %v\n", err)
		}
		if err := eventsFile.Close(); err != nil {
			fatalf("event log: %v", err)
		}
	}

	if sum.Failed > 0 {
		fmt.Fprintf(os.Stderr, "dsre-sweep: %d/%d jobs failed (first: %v)\n",
			sum.Failed, len(sum.Jobs), sum.FirstError())
		os.Exit(1)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

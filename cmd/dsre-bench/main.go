// dsre-bench regenerates the tables and figures of the paper's evaluation
// (experiments E1..E16, indexed in DESIGN.md).  Every experiment it runs
// also drops a machine-readable BENCH_<id>.json artifact so CI can track
// the performance trajectory, and profiling hooks expose the harness's own
// hot paths.
//
// Usage:
//
//	dsre-bench                 # run everything at full size
//	dsre-bench -quick          # small sizes, for smoke runs
//	dsre-bench -only E2,E4     # a subset of experiments
//	dsre-bench -outdir out     # where BENCH_<id>.json artifacts go
//	dsre-bench -jobs 8         # parallel simulations (default GOMAXPROCS)
//	dsre-bench -cache .dsre-cache  # reuse cached results across runs
//	dsre-bench -progress       # per-simulation progress lines on stderr
//	dsre-bench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	dsre-bench -pprof localhost:6060   # live net/http/pprof listener
//
// Experiments run through the sweep engine (internal/sweep): the grid
// points of each experiment execute on a bounded worker pool, one program
// build and golden-model run is shared across the schemes of each kernel,
// and -cache replays unchanged points from the content-addressed store.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/obs/status"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// artifactSchema identifies the BENCH_<id>.json wire format.
const artifactSchema = "dsre-bench/v1"

// artifact is one experiment's machine-readable result.
type artifact struct {
	Schema    string             `json:"schema"`
	ID        string             `json:"id"`
	Quick     bool               `json:"quick"`
	Tables    []*stats.Table     `json:"tables"`
	Headlines map[string]float64 `json:"headlines,omitempty"`
	ElapsedMS int64              `json:"elapsed_ms"`
	// Simulator throughput attributed to this experiment: live (non-cached)
	// simulated cycles and wall time since the previous artifact, and their
	// quotient.  A fully cached group records zeros and omits the rate —
	// the figures measure the harness, so -baseline never compares them.
	SimCycles     int64   `json:"sim_cycles"`
	SimWallMS     float64 `json:"sim_wall_ms"`
	McyclesPerSec float64 `json:"mcycles_per_sec,omitempty"`
}

func main() {
	quick := flag.Bool("quick", false, "use small workload sizes")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E2,E4); empty runs all")
	outdir := flag.String("outdir", ".", "directory for BENCH_<id>.json artifacts (empty disables)")
	jobs := flag.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	cache := flag.String("cache", "", "content-addressed result cache directory (empty disables)")
	progress := flag.Bool("progress", false, "stream per-simulation progress to stderr")
	baseline := flag.String("baseline", "", "compare against prior BENCH_<id>.json artifacts (a file or a directory of them)")
	tolerance := flag.Float64("tolerance", 0.05, "relative IPC/speedup change -baseline accepts before exiting 3")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	statusAddr := flag.String("status", "", "serve /metrics, /healthz, /progress and /debug/pprof on this address (empty disables)")
	eventsPath := flag.String("events", "", "write a dsre-events/v4 JSONL lifecycle log to this path (empty disables)")
	flag.Parse()

	// SIGINT and SIGTERM drain the harness: in-flight simulations finish,
	// queued grid points are abandoned, profiles below still flush.  The
	// experiment helpers panic on an interrupted sweep; the recover turns
	// that into a clean drain exit after the profile defers (LIFO) ran.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer func() {
		if r := recover(); r != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "dsre-bench: drained: %v\n", ctx.Err())
				os.Exit(1)
			}
			panic(r)
		}
	}()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "dsre-bench: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			}
		}()
	}

	// One engine across every experiment so workload builds and golden-model
	// runs memoize across experiment boundaries, not just within one.
	opts := sweep.Options{Workers: *jobs}
	if *cache != "" {
		st, err := sweep.OpenStore(*cache)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			os.Exit(1)
		}
		opts.Store = st
	}
	if *progress {
		opts.Progress = sweep.NewReporter(os.Stderr, *jobs)
	}

	// Observability (opt-in): one observer spans every experiment, so
	// /metrics and the event log see the whole harness run as one sweep.
	if *eventsPath != "" || *statusAddr != "" {
		var sink obs.EventSink
		if *eventsPath != "" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			sink = obs.NewJSONLSink(f)
		}
		opts.Obs = obs.NewSweepObs(time.Now(), sink, nil)
	}
	if *statusAddr != "" {
		observer := opts.Obs
		srv, err := status.Serve(*statusAddr, status.Options{
			Registry: observer.Reg,
			Progress: func() obs.ProgressView { return observer.Progress(time.Now()) },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dsre-bench: status server on http://%s\n", srv.Addr())
	}
	eng := sweep.New(opts)
	o := experiments.Opts{Quick: *quick, Ctx: ctx, Engine: eng}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	sel := func(id string) bool { return len(want) == 0 || want[id] }

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	ran := 0
	regressions := 0
	var tallyCycles int64
	var tallyWall time.Duration
	// emit prints an experiment's tables, writes its BENCH artifact, and
	// (under -baseline) diffs the run against the recorded artifact.
	emit := func(id string, headlines map[string]float64, tables ...*stats.Table) {
		for _, t := range tables {
			fmt.Println(t)
		}
		ran++
		// Experiment arguments are evaluated before emit runs, so the tally
		// delta since the last artifact is this experiment's live simulation
		// work (for shared runs like E2/E3, the first artifact carries it).
		cyc, wall := eng.Tally()
		dCycles, dWall := cyc-tallyCycles, wall-tallyWall
		tallyCycles, tallyWall = cyc, wall
		a := artifact{
			Schema: artifactSchema, ID: id, Quick: *quick,
			Tables: tables, Headlines: headlines,
			ElapsedMS: time.Since(start).Milliseconds(),
			SimCycles: dCycles, SimWallMS: float64(dWall.Microseconds()) / 1e3,
		}
		if dWall > 0 {
			a.McyclesPerSec = float64(dCycles) / 1e6 / dWall.Seconds()
		}
		if *baseline != "" {
			base, err := loadBaseline(*baseline, id)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "dsre-bench: baseline %s: %v\n", id, err)
				os.Exit(1)
			case base == nil:
				fmt.Printf("baseline %s: no artifact to compare\n\n", id)
			default:
				comps := compareArtifacts(base, &a)
				if len(comps) == 0 {
					fmt.Printf("baseline %s: no shared metrics\n\n", id)
				} else {
					fmt.Printf("baseline %s (tolerance %.1f%%):\n", id, 100**tolerance)
					regressions += reportComparisons(os.Stdout, comps, *tolerance)
					fmt.Println()
				}
			}
		}
		if *outdir == "" {
			return
		}
		data, err := json.MarshalIndent(&a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: marshal %s: %v\n", id, err)
			os.Exit(1)
		}
		path := filepath.Join(*outdir, "BENCH_"+id+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dsre-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if sel("E1") {
		emit("E1", nil, experiments.E1ConfigTable())
	}
	if sel("E2") || sel("E3") {
		e2, e3, sum := experiments.E2E3Speedup(o)
		headlines := map[string]float64{
			"dsre_over_storeset_geomean":          sum.DSREOverStoreSet,
			"dsre_over_storeset_conflict_geomean": sum.DSREOverStoreSetConflict,
			"dsre_of_oracle_geomean":              sum.DSREOfOracle,
		}
		if sel("E2") {
			emit("E2", headlines, e2)
		}
		if sel("E3") {
			emit("E3", headlines, e3)
		}
		fmt.Printf("headline: DSRE vs storeset+flush geomean speedup = %.2fx all kernels, %.2fx conflict kernels (paper: 1.17x on SPEC)\n",
			sum.DSREOverStoreSet, sum.DSREOverStoreSetConflict)
		fmt.Printf("headline: DSRE reaches %.0f%% of oracle (paper: 82%%)\n\n", 100*sum.DSREOfOracle)
	}
	if sel("E4") {
		emit("E4", nil, experiments.E4WindowScaling(o))
	}
	if sel("E5") {
		emit("E5", nil, experiments.E5Misspec(o))
	}
	if sel("E6") {
		emit("E6", nil, experiments.E6CommitWave(o))
	}
	if sel("E7") {
		emit("E7", nil, experiments.E7Suppression(o))
	}
	if sel("E8") {
		emit("E8", nil, experiments.E8WaveSizes(o))
	}
	if sel("E9") {
		emit("E9", nil, experiments.E9HopLatency(o))
	}
	if sel("E10") {
		emit("E10", nil, experiments.E10StoreSetSize(o))
	}
	if sel("E11") {
		emit("E11", nil, experiments.E11BlockPredictors(o))
	}
	if sel("E12") {
		emit("E12", nil, experiments.E12WorkBreakdown(o))
	}
	if sel("E13") {
		emit("E13", nil, experiments.E13Placement(o))
	}
	if sel("E14") {
		emit("E14", nil, experiments.E14DTileBanks(o))
	}
	if sel("E15") {
		emit("E15", nil, experiments.E15LSQCapacity(o))
	}
	if sel("E16") {
		emit("E16", nil, experiments.E16ValuePrediction(o))
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %q (have %s)\n",
			*only, strings.Join(experiments.IDs(), ","))
		os.Exit(1)
	}
	if totCycles, totWall := eng.Tally(); totWall > 0 {
		fmt.Printf("(%d experiment groups in %v; %.0fM cycles simulated at %.1f Mcycles/s)\n",
			ran, time.Since(start).Round(time.Millisecond),
			float64(totCycles)/1e6, float64(totCycles)/1e6/totWall.Seconds())
	} else {
		fmt.Printf("(%d experiment groups in %v; all points cached)\n", ran, time.Since(start).Round(time.Millisecond))
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "dsre-bench: %d metrics moved beyond -tolerance %.1f%% vs %s\n",
			regressions, 100**tolerance, *baseline)
		os.Exit(3)
	}
}

// loadBaseline resolves the -baseline flag for one experiment: a directory
// holds one BENCH_<id>.json per experiment; a single file compares only the
// experiment it records.  (nil, nil) means nothing to compare.
func loadBaseline(path, id string) (*artifact, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		p := filepath.Join(path, "BENCH_"+id+".json")
		if _, err := os.Stat(p); err != nil {
			return nil, nil
		}
		return readArtifact(p)
	}
	a, err := readArtifact(path)
	if err != nil {
		return nil, err
	}
	if a.ID != id {
		return nil, nil
	}
	return a, nil
}

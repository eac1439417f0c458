package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// newObserved builds an observer with an event log and span log attached,
// for wiring into Options.Obs.
func newObserved() (*obs.SweepObs, *bytes.Buffer, *obs.SpanLog) {
	var log bytes.Buffer
	spans := obs.NewSpanLog()
	return obs.NewSweepObs(time.Now(), obs.NewJSONLSink(&log), spans), &log, spans
}

// TestEngineObsReconciles runs a grid with dedup, a cache replay and a
// failure, and pins that the observer's counters and the cache_hit events
// reconcile exactly with the manifest totals — the same equality the
// obs-smoke CI job asserts against the real binary.
func TestEngineObsReconciles(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{Workload: "vecsum"},
		{Workload: "vecsum", Scheme: "dsre"}, // dedups onto the first
		{Workload: "histogram"},
		{Workload: "matmul"},
	}
	runner := func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		if spec.Workload == "matmul" {
			return nil, errors.New("deterministic failure")
		}
		return fakeReport(spec), nil
	}

	run := func() (*Summary, *obs.SweepObs, []obs.Event) {
		o, log, _ := newObserved()
		eng := New(Options{Workers: 2, Store: st, Runner: runner, Obs: o})
		sum, err := eng.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadEvents(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatalf("event log invalid: %v", err)
		}
		return sum, o, events
	}

	check := func(name string, sum *Summary, o *obs.SweepObs, events []obs.Event) {
		t.Helper()
		m := NewManifest(sum)
		s := o.Reg.Snapshot()
		for metric, want := range map[string]int{
			"dsre_sweep_jobs_total":        m.Totals.Jobs,
			"dsre_sweep_jobs_ok_total":     m.Totals.OK,
			"dsre_sweep_jobs_failed_total": m.Totals.Failed,
			"dsre_sweep_cache_hits_total":  m.Totals.CacheHits,
		} {
			if got := s.Counter(metric); got != int64(want) {
				t.Errorf("%s: %s = %d, manifest says %d", name, metric, got, want)
			}
		}
		hitCopies := 0
		for _, e := range events {
			if e.Kind == obs.EventCacheHit {
				hitCopies += e.Copies
			}
		}
		if hitCopies != m.Totals.CacheHits {
			t.Errorf("%s: Σ cache_hit copies = %d, manifest says %d", name, hitCopies, m.Totals.CacheHits)
		}
		var doneTotals *obs.Event
		for i := range events {
			if events[i].Kind == obs.EventSweepDone {
				doneTotals = &events[i]
			}
		}
		if doneTotals == nil {
			t.Fatalf("%s: no sweep_done event", name)
		}
		if doneTotals.OK != m.Totals.OK || doneTotals.Failed != m.Totals.Failed || doneTotals.CacheHits != m.Totals.CacheHits {
			t.Errorf("%s: sweep_done totals %+v disagree with manifest %+v", name, doneTotals, m.Totals)
		}
		// Gauges must read clean after the run.
		for _, g := range []string{"dsre_sweep_jobs_queued", "dsre_sweep_jobs_running", "dsre_sweep_workers_busy"} {
			if got := s.Gauge(g); got != 0 {
				t.Errorf("%s: %s = %d after run, want 0", name, g, got)
			}
		}
	}

	// Cold run: one dedup hit; warm run: store replays cover everything OK.
	sum, o, events := run()
	if sum.OK != 3 || sum.CacheHits != 1 || sum.Failed != 1 {
		t.Fatalf("cold run totals: %+v", sum)
	}
	check("cold", sum, o, events)

	sum, o, events = run()
	if sum.OK != 3 || sum.CacheHits != 3 || sum.Failed != 1 {
		t.Fatalf("warm run totals: %+v", sum)
	}
	check("warm", sum, o, events)
}

// TestEngineSpanDecomposition pins the contiguity invariant the Chrome
// trace relies on: each job's phase chain starts at the grid's feed start,
// every phase begins exactly where the previous ended, and the per-job
// span total telescopes to the job's wall time (first pickup to last mark)
// with no gaps or overlaps.
func TestEngineSpanDecomposition(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o, _, spans := newObserved()
	eng := New(Options{Workers: 2, Store: st, Obs: o,
		Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
			time.Sleep(2 * time.Millisecond)
			return fakeReport(spec), nil
		}})
	specs := []JobSpec{
		{Workload: "vecsum"},
		{Workload: "histogram"},
		{Workload: "matmul"},
	}
	if _, err := eng.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}

	jobs := spans.Jobs()
	if len(jobs) != len(specs) {
		t.Fatalf("recorded %d job lifecycles, want %d", len(jobs), len(specs))
	}
	for _, j := range jobs {
		if len(j.Phases) == 0 {
			t.Fatalf("job %s: no phases", j.Name)
		}
		if j.Phases[0].Phase != obs.PhaseQueueWait {
			t.Errorf("job %s: first phase %v, want queue-wait", j.Name, j.Phases[0].Phase)
		}
		var total int64
		for i, ph := range j.Phases {
			if ph.EndNS < ph.StartNS {
				t.Errorf("job %s phase %v: negative span [%d,%d]", j.Name, ph.Phase, ph.StartNS, ph.EndNS)
			}
			if i > 0 && ph.StartNS != j.Phases[i-1].EndNS {
				t.Errorf("job %s: %v starts at %d, previous phase ended at %d — chain must be contiguous",
					j.Name, ph.Phase, ph.StartNS, j.Phases[i-1].EndNS)
			}
			total += ph.EndNS - ph.StartNS
		}
		if wall := j.Phases[len(j.Phases)-1].EndNS - j.Phases[0].StartNS; total != wall {
			t.Errorf("job %s: phase total %dns != wall %dns", j.Name, total, wall)
		}
		// A computed job with a store saw the full decomposition.
		want := []obs.Phase{obs.PhaseQueueWait, obs.PhaseCacheLookup, obs.PhaseRun, obs.PhaseStoreWrite}
		if len(j.Phases) != len(want) {
			t.Errorf("job %s: phases %v, want %v", j.Name, j.Phases, want)
			continue
		}
		for i, ph := range j.Phases {
			if ph.Phase != want[i] {
				t.Errorf("job %s: phase %d = %v, want %v", j.Name, i, ph.Phase, want[i])
			}
		}
	}
}

// TestEngineObsRetryAndPanic pins the retry/panic event stream: a job that
// panics once and fails once under Retries=1 yields one panic event, one
// retry event, and retry metrics equal to attempts-1.
func TestEngineObsRetryAndPanic(t *testing.T) {
	o, log, _ := newObserved()
	var mu sync.Mutex
	attempts := 0
	eng := New(Options{Retries: 1, Obs: o,
		Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
			mu.Lock()
			attempts++
			a := attempts
			mu.Unlock()
			if a == 1 {
				panic("simulated wreck")
			}
			return nil, errors.New("still broken")
		}})
	sum, err := eng.Run(context.Background(), []JobSpec{{Workload: "vecsum"}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed != 1 {
		t.Fatalf("summary: %+v", sum)
	}

	s := o.Reg.Snapshot()
	if got := s.Counter("dsre_sweep_retries_total"); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := s.Counter("dsre_sweep_panics_total"); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	events, err := obs.ReadEvents(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[obs.EventKind]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Kind == obs.EventPanic && e.Error != "panic: simulated wreck" {
			t.Errorf("panic event error = %q, want first line of the panic", e.Error)
		}
	}
	if kinds[obs.EventPanic] != 1 || kinds[obs.EventRetry] != 1 {
		t.Errorf("event kinds = %v, want 1 panic and 1 retry", kinds)
	}
}

// TestEngineObsDrain cancels a sweep mid-run and pins the structured drain
// event plus the drain counter.
func TestEngineObsDrain(t *testing.T) {
	o, log, _ := newObserved()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The first (and only started) job cancels the sweep, then keeps its
	// worker busy long enough that the feed loop observes ctx.Done before
	// the worker could accept another job — so exactly one job runs and the
	// rest are deterministically abandoned.
	eng := New(Options{Workers: 1, Obs: o,
		Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
			cancel()
			time.Sleep(50 * time.Millisecond)
			return fakeReport(spec), nil
		}})

	var specs []JobSpec
	for _, frames := range []int{2, 4, 8, 16} {
		specs = append(specs, JobSpec{Workload: "vecsum", Frames: frames})
	}
	sum, err := eng.Run(ctx, specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if sum.OK != 1 || sum.Failed != 3 {
		t.Fatalf("drained summary: OK=%d Failed=%d, want 1/3", sum.OK, sum.Failed)
	}

	if got := o.Reg.Snapshot().Counter("dsre_sweep_drains_total"); got != 1 {
		t.Errorf("drains = %d, want 1", got)
	}
	events, err := obs.ReadEvents(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var drain *obs.Event
	for i := range events {
		if events[i].Kind == obs.EventDrain {
			drain = &events[i]
		}
	}
	if drain == nil {
		t.Fatal("no drain event in the log")
	}
	if drain.Error != context.Canceled.Error() {
		t.Errorf("drain cause = %q, want %q", drain.Error, context.Canceled)
	}
}

// TestEngineObsOffMatchesOn pins that attaching an observer changes no
// engine-visible result: same summary, same per-job statuses and hashes.
func TestEngineObsOffMatchesOn(t *testing.T) {
	specs := []JobSpec{
		{Workload: "vecsum"},
		{Workload: "vecsum", Scheme: "dsre"},
		{Workload: "histogram"},
	}
	run := func(o *obs.SweepObs) *Summary {
		var calls sync.Map
		eng := New(Options{Workers: 2, Runner: countingRunner(t, &calls), Obs: o})
		sum, err := eng.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	observer, _, _ := newObserved()
	off, on := run(nil), run(observer)
	if off.OK != on.OK || off.Failed != on.Failed || off.CacheHits != on.CacheHits {
		t.Fatalf("summaries diverge: off %+v, on %+v", off, on)
	}
	for i := range off.Jobs {
		a, b := off.Jobs[i], on.Jobs[i]
		if a.Status != b.Status || a.Hash != b.Hash || a.CacheHit != b.CacheHit {
			t.Errorf("job %d diverges: off %+v, on %+v", i, a, b)
		}
	}
}

// TestProgressKeepsNewestGrids pins the live view's bound: an observer
// shared by many engine Runs (dsre-bench runs several) keeps
// only the newest finished grids, newest last, while the grid counter
// still counts every Run.
func TestProgressKeepsNewestGrids(t *testing.T) {
	o, _, _ := newObserved()
	eng := New(Options{Workers: 1, Obs: o, Runner: func(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
		return fakeReport(spec), nil
	}})
	const runs = 100
	for i := 0; i < runs; i++ {
		if _, err := eng.Run(context.Background(), []JobSpec{{Workload: "vecsum"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Reg.Snapshot().Counter("dsre_sweep_grids_total"); got != runs {
		t.Errorf("dsre_sweep_grids_total = %d, want %d", got, runs)
	}
	grids := o.Progress(time.Now()).Grids
	if len(grids) == 0 || len(grids) >= runs {
		t.Fatalf("progress keeps %d of %d finished grids, want a bounded tail", len(grids), runs)
	}
	first := runs - len(grids) + 1
	for i, g := range grids {
		if want := fmt.Sprintf("grid-%d", first+i); g.Grid != want || !g.Finished {
			t.Errorf("progress grid %d = %s (finished %v), want %s, finished", i, g.Grid, g.Finished, want)
		}
	}
}

// TestReporterRollingETA pins that the reporter's ETA follows the recent
// completion rate: slow early jobs followed by fast ones must not leave the
// ETA stuck at the cumulative mean.
func TestReporterRollingETA(t *testing.T) {
	var out bytes.Buffer
	r := NewReporter(&out, 1)
	r.begin(40, 0)
	// 35 computed completions recorded "now": the window rate is high, so
	// the remaining 5 jobs extrapolate to a small ETA even though each job
	// claims 10s of compute time (cumulative mean would say ~50s).
	for i := 0; i < 35; i++ {
		r.jobDone(JobResult{Spec: JobSpec{Workload: "vecsum"}, Status: StatusOK, Elapsed: 10_000}, 1)
	}
	r.mu.Lock()
	d, ok := r.etaLocked()
	r.mu.Unlock()
	if !ok {
		t.Fatal("eta unavailable")
	}
	if d > 10*time.Second {
		t.Errorf("eta = %v; rolling-window estimate should beat the 50s cumulative mean", d)
	}
	if !bytes.Contains(out.Bytes(), []byte("eta")) {
		t.Error("progress lines carry no eta")
	}
}

// TestReporterFinishHitRate pins the cache-hit percentage in the summary
// line alongside the counts the older tests grep for.
func TestReporterFinishHitRate(t *testing.T) {
	var out bytes.Buffer
	r := NewReporter(&out, 1)
	r.begin(4, 0)
	sum := &Summary{
		Jobs:      make([]JobResult, 4),
		OK:        3,
		Failed:    1,
		CacheHits: 2,
		Elapsed:   3 * time.Second,
	}
	r.finish(sum)
	line := out.String()
	if want := "3 ok (2 cache hits, 50%), 1 failed"; !bytes.Contains([]byte(line), []byte(want)) {
		t.Errorf("finish line %q missing %q", line, want)
	}
}

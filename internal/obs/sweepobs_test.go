package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// clock hands out deterministic, strictly advancing instants so lifecycle
// tests control every timestamp the observer sees.
type clock struct{ t time.Time }

func newClock() *clock {
	return &clock{t: time.Unix(1_700_000_000, 0)}
}

func (c *clock) now() time.Time { return c.t }

func (c *clock) advance(d time.Duration) time.Time {
	c.t = c.t.Add(d)
	return c.t
}

// TestSweepObsLifecycle drives one grid through a mixed outcome set and
// checks counters, events, spans, and the final progress view all agree.
func TestSweepObsLifecycle(t *testing.T) {
	var log bytes.Buffer
	sink := NewJSONLSink(&log)
	spans := NewSpanLog()
	c := newClock()
	o := NewSweepObs(c.now(), sink, spans)

	// 4 specs, 3 unique (one pair dedups), 2 workers.
	g := o.GridBegin(4, 3, 2, c.now())

	// Job A: computed OK, covers 2 dedup copies -> 1 cache hit.
	a := g.StartJob(0, "job-a", "ha", 2, c.advance(time.Millisecond))
	a.Mark(PhaseCacheLookup, c.advance(time.Millisecond))
	a.Mark(PhasePrepare, c.advance(2*time.Millisecond))
	a.Mark(PhaseRun, c.advance(10*time.Millisecond))
	a.StoreWrite(true, c.advance(time.Millisecond))
	a.Done("ok", false, 1, 15, c.now())

	// Job B: store replay -> its single copy is a cache hit.
	b := g.StartJob(1, "job-b", "hb", 1, c.advance(time.Millisecond))
	b.Mark(PhaseCacheLookup, c.advance(time.Millisecond))
	b.Done("ok", true, 0, 2, c.now())

	// Job C: one retry, one panic, then fails for good.
	j := g.StartJob(0, "job-c", "hc", 1, c.advance(time.Millisecond))
	j.Mark(PhaseCacheLookup, c.advance(time.Millisecond))
	j.Retry(1, errors.New("flaky\nstack"), c.advance(3*time.Millisecond))
	j.Panic(2, errors.New("panic: boom\nstack"), c.advance(3*time.Millisecond))
	j.Mark(PhaseRun, c.now())
	j.Done("failed", false, 2, 8, c.now())

	g.Drain(errors.New("context canceled"), c.advance(time.Millisecond))
	g.End(3, 1, 2, c.advance(time.Millisecond))

	s := o.Reg.Snapshot()
	for name, want := range map[string]int64{
		"dsre_sweep_jobs_total":         4,
		"dsre_sweep_jobs_ok_total":      3,
		"dsre_sweep_jobs_failed_total":  1,
		"dsre_sweep_cache_hits_total":   2,
		"dsre_sweep_retries_total":      1,
		"dsre_sweep_panics_total":       1,
		"dsre_sweep_store_writes_total": 1,
		"dsre_sweep_drains_total":       1,
		"dsre_sweep_grids_total":        1,
	} {
		if got := s.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]int64{
		"dsre_sweep_jobs_queued":  0,
		"dsre_sweep_jobs_running": 0,
		"dsre_sweep_workers_busy": 0,
		"dsre_sweep_workers":      2,
	} {
		if got := s.Gauge(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	events, err := ReadEvents(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	counts := map[EventKind]int{}
	hitCopies := 0
	for _, e := range events {
		counts[e.Kind]++
		if e.Kind == EventCacheHit {
			hitCopies += e.Copies
		}
		if e.Kind == EventRetry && strings.Contains(e.Error, "\n") {
			t.Errorf("retry error not trimmed to first line: %q", e.Error)
		}
	}
	wantCounts := map[EventKind]int{
		EventSweepStart: 1, EventJobStart: 3, EventJobDone: 3, EventCacheHit: 2,
		EventRetry: 1, EventPanic: 1, EventStoreWrite: 1, EventDrain: 1, EventSweepDone: 1,
	}
	for k, want := range wantCounts {
		if counts[k] != want {
			t.Errorf("%s events = %d, want %d", k, counts[k], want)
		}
	}
	// Σ cache_hit copies must equal the manifest's Totals.CacheHits — the
	// reconciliation the obs-smoke CI job pins end to end.
	if hitCopies != 2 {
		t.Errorf("cache_hit copies sum = %d, want 2", hitCopies)
	}

	jobs := spans.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("span log holds %d jobs, want 3", len(jobs))
	}
	for _, js := range jobs {
		if len(js.Phases) == 0 {
			t.Fatalf("job %s has no phases", js.Name)
		}
		if js.Phases[0].Phase != PhaseQueueWait {
			t.Errorf("job %s first phase = %v, want queue-wait", js.Name, js.Phases[0].Phase)
		}
		for i := 1; i < len(js.Phases); i++ {
			if js.Phases[i].StartNS != js.Phases[i-1].EndNS {
				t.Errorf("job %s phase %d starts at %d, previous ended at %d (chain must be contiguous)",
					js.Name, i, js.Phases[i].StartNS, js.Phases[i-1].EndNS)
			}
		}
	}

	v := o.Progress(c.now())
	if v.Schema != ProgressSchema {
		t.Errorf("progress schema = %q", v.Schema)
	}
	if len(v.Workers) != 2 || len(v.Grids) != 1 {
		t.Fatalf("progress = %d workers / %d grids, want 2 / 1", len(v.Workers), len(v.Grids))
	}
	gv := v.Grids[0]
	if !gv.Finished || gv.Done != 4 || gv.Cached != 2 || gv.Failed != 1 || gv.Queued != 0 {
		t.Errorf("grid view = %+v", gv)
	}
	if _, err := json.Marshal(v); err != nil {
		t.Fatalf("progress view not marshalable: %v", err)
	}
}

// TestSweepObsNilSinkAndSpans pins that a metrics-only observer works with
// both optional surfaces disabled.
func TestSweepObsNilSinkAndSpans(t *testing.T) {
	c := newClock()
	o := NewSweepObs(c.now(), nil, nil)
	g := o.GridBegin(1, 1, 1, c.now())
	j := g.StartJob(0, "job", "h", 1, c.advance(time.Millisecond))
	j.Mark(PhaseRun, c.advance(time.Millisecond))
	j.Done("ok", false, 1, 1, c.now())
	g.End(1, 0, 0, c.now())
	if got := o.Reg.Snapshot().Counter("dsre_sweep_jobs_ok_total"); got != 1 {
		t.Errorf("ok counter = %d, want 1", got)
	}
}

// TestProgressEta pins that the ETA comes from the rolling window rate, not
// a cumulative average: after 4 completions 1s apart, 10 remaining jobs
// extrapolate to ~10s.
func TestProgressEta(t *testing.T) {
	c := newClock()
	o := NewSweepObs(c.now(), nil, nil)
	g := o.GridBegin(14, 14, 1, c.now())
	for i := 0; i < 4; i++ {
		j := g.StartJob(0, "job", "h", 1, c.advance(time.Second))
		j.Done("ok", false, 1, 1000, c.now())
	}
	v := o.Progress(c.now())
	if v.RatePerSec < 0.9 || v.RatePerSec > 1.1 {
		t.Fatalf("rate = %v, want ~1/s", v.RatePerSec)
	}
	eta := v.Grids[0].EtaMS
	if eta < 9_000 || eta > 11_000 {
		t.Errorf("eta = %dms, want ~10000ms for 10 remaining at 1/s", eta)
	}
}

// TestProgressKeepsUnfinishedGrids pins the pruning rule: an unfinished
// grid survives any number of later finished ones, which are cut to the
// newest keptFinishedGrids in begin order.
func TestProgressKeepsUnfinishedGrids(t *testing.T) {
	c := newClock()
	o := NewSweepObs(c.now(), nil, nil)
	o.GridBegin(1, 1, 1, c.now()) // never ends
	for i := 0; i < 100; i++ {
		o.GridBegin(1, 1, 1, c.advance(time.Millisecond)).End(1, 0, 0, c.now())
	}
	grids := o.Progress(c.now()).Grids
	if len(grids) != keptFinishedGrids+1 {
		t.Fatalf("progress holds %d grids, want %d finished + 1 open", len(grids), keptFinishedGrids)
	}
	if g := grids[0]; g.Grid != "grid-1" || g.Finished {
		t.Errorf("first grid = %+v, want the open grid-1", g)
	}
	if g := grids[len(grids)-1]; g.Grid != "grid-101" {
		t.Errorf("last grid = %s, want grid-101", g.Grid)
	}
}

func TestRateWindow(t *testing.T) {
	w := NewRateWindow(4)
	base := time.Unix(1_700_000_000, 0)
	if _, ok := w.Rate(base); ok {
		t.Fatal("empty window reported a rate")
	}
	// 6 completions 1s apart through a capacity-4 window: rate stays 1/s
	// because old samples fall out.
	for i := 0; i < 6; i++ {
		w.Observe(base.Add(time.Duration(i) * time.Second))
	}
	if w.Len() != 4 {
		t.Fatalf("window len = %d, want 4", w.Len())
	}
	rate, ok := w.Rate(base.Add(5 * time.Second))
	if !ok || rate < 0.9 || rate > 1.1 {
		t.Errorf("rate = %v/%v, want ~1/s", rate, ok)
	}
	// A stall decays the estimate: same window observed 10s later.
	stalled, ok := w.Rate(base.Add(15 * time.Second))
	if !ok || stalled >= rate {
		t.Errorf("stalled rate = %v, want below %v", stalled, rate)
	}
}

// TestSpanLogChromeTrace renders a small log and checks the catapult JSON
// shape: metadata lanes plus one enclosing job span and nested phases.
func TestSpanLogChromeTrace(t *testing.T) {
	l := NewSpanLog()
	l.Add(JobSpans{
		Name: "job-a", Hash: "ha", Grid: "grid-1", Worker: 1, Status: "ok",
		Phases: []PhaseSpan{
			{Phase: PhaseQueueWait, StartNS: 0, EndNS: 1_000_000},
			{Phase: PhaseRun, StartNS: 1_000_000, EndNS: 5_000_000},
		},
	})
	var buf bytes.Buffer
	if err := l.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	found := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		found[ev.Ph+":"+ev.Name] = true
		if ev.Ph == "X" && ev.Name == "run" && ev.Dur != 4000 {
			t.Errorf("run span dur = %dus, want 4000", ev.Dur)
		}
	}
	for _, want := range []string{"M:process_name", "M:thread_name", "X:job-a", "X:queue-wait", "X:run"} {
		if !found[want] {
			t.Errorf("trace missing %s (have %v)", want, found)
		}
	}
}

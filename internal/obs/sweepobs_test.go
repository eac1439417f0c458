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
// checks the events and spans agree.
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

	events, err := ReadEvents(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	counts := map[EventKind]int{}
	hitCopies := 0
	doneCopies := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
		switch e.Kind {
		case EventCacheHit:
			hitCopies += e.Copies
		case EventJobDone:
			doneCopies[e.Status] += e.Copies
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
	// Σ job_done copies by status covers every spec once.
	if doneCopies["ok"] != 3 || doneCopies["failed"] != 1 || len(doneCopies) != 2 {
		t.Errorf("job_done copies by status = %v, want ok:3 failed:1", doneCopies)
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
}

// TestSweepObsNilSinkAndSpans pins that an observer works with both
// optional surfaces disabled.
func TestSweepObsNilSinkAndSpans(t *testing.T) {
	c := newClock()
	o := NewSweepObs(c.now(), nil, nil)
	g := o.GridBegin(1, 1, 1, c.now())
	j := g.StartJob(0, "job", "h", 1, c.advance(time.Millisecond))
	j.Mark(PhaseRun, c.advance(time.Millisecond))
	j.StoreWrite(true, c.advance(time.Millisecond))
	j.Done("ok", false, 1, 1, c.now())
	o.StoreCorrupt("h", "bad digest", c.now())
	g.End(1, 0, 0, c.now())
	if len(j.phases) != 3 {
		t.Errorf("job recorded %d phases, want 3", len(j.phases))
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

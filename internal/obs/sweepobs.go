// Package obs is the sweep-level observability layer: a structured
// job-lifecycle event log (dsre-events/v4) and per-job lifecycle spans with
// a per-worker Chrome-trace export.
//
// The package is deterministic-when-off by construction and is audited by
// dsre-lint's determinism analyzer: it never reads the wall clock (every
// hook takes the caller's time.Time), never spawns goroutines, and never
// iterates maps with order-dependent effects.  Consumers (the sweep engine)
// keep every hook behind a single nil check, so a disabled observer costs
// one pointer compare and zero allocations.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// SweepObs bundles the observability surfaces of the sweep engine: an
// optional structured EventSink and an optional per-job SpanLog.  Every
// method takes the caller's clock reading — this package never reads time
// itself — and the engine guards every call with a single nil check, so a
// disabled observer is one pointer compare.
type SweepObs struct {
	start time.Time
	sink  EventSink
	spans *SpanLog

	mu    sync.Mutex
	begun int // grids ever begun, for naming
}

// NewSweepObs builds an observer anchored at start (the caller's clock).
// sink and spans may each be nil, which skips events or spans.
func NewSweepObs(start time.Time, sink EventSink, spans *SpanLog) *SweepObs {
	return &SweepObs{start: start, sink: sink, spans: spans}
}

func (o *SweepObs) rel(t time.Time) int64 { return t.Sub(o.start).Nanoseconds() }

func (o *SweepObs) emit(e Event, now time.Time) {
	if o.sink != nil {
		e.TimeMS = now.UnixMilli()
		o.sink.Emit(e)
	}
}

// StoreCorrupt records a cached record rejected by payload verification as
// a store_corrupt event.  The read stays a plain cache miss — this is
// forensics, not control flow.
func (o *SweepObs) StoreCorrupt(hash, detail string, now time.Time) {
	o.emit(Event{Kind: EventStoreCorrupt, Job: hash, Error: firstLine(detail)}, now)
}

// Grid is the handle for one engine Run.  It is immutable once GridBegin
// returns, so workers read it without locking.
type Grid struct {
	o       *SweepObs
	name    string
	total   int
	startNS int64
}

// GridBegin opens one engine Run of total specs (unique after dedup) on a
// pool of workers, and emits sweep_start.
func (o *SweepObs) GridBegin(total, unique, workers int, now time.Time) *Grid {
	o.mu.Lock()
	o.begun++
	n := o.begun
	o.mu.Unlock()

	g := &Grid{o: o, name: fmt.Sprintf("grid-%d", n), total: total, startNS: o.rel(now)}
	o.emit(Event{Kind: EventSweepStart, Grid: g.name, Total: total, Unique: unique, Workers: workers}, now)
	return g
}

// Drain records the sweep's context being cancelled: queued jobs are
// abandoned while in-flight ones finish.
func (g *Grid) Drain(cause error, now time.Time) {
	e := Event{Kind: EventDrain, Grid: g.name}
	if cause != nil {
		e.Error = cause.Error()
	}
	g.o.emit(e, now)
}

// End closes the Run with the summary's authoritative totals and emits
// sweep_done.
func (g *Grid) End(ok, failed, cacheHits int, now time.Time) {
	g.o.emit(Event{
		Kind: EventSweepDone, Grid: g.name, Total: g.total,
		OK: ok, Failed: failed, CacheHits: cacheHits,
		ElapsedMS: (g.o.rel(now) - g.startNS) / int64(time.Millisecond),
	}, now)
}

// JobObs tracks one unique job from pickup to completion.  It is owned by
// a single worker goroutine, so Mark appends to the span chain without
// locking.
type JobObs struct {
	g          *Grid
	worker     int
	name, hash string
	copies     int
	lastNS     int64
	phases     []PhaseSpan
}

// StartJob marks a worker picking the job up.  The queue-wait span runs
// from the grid's feed start to now; copies is how many specs dedup onto
// this execution.
func (g *Grid) StartJob(worker int, name, hash string, copies int, now time.Time) *JobObs {
	j := &JobObs{g: g, worker: worker, name: name, hash: hash, copies: copies, lastNS: g.startNS}
	j.Mark(PhaseQueueWait, now)
	g.o.emit(Event{Kind: EventJobStart, Grid: g.name, Job: hash, Name: name, Worker: worker, Copies: copies}, now)
	return j
}

// Mark closes the current phase at now: the span runs from the end of the
// previous mark, keeping the chain contiguous.
func (j *JobObs) Mark(phase Phase, now time.Time) {
	ns := j.g.o.rel(now)
	if ns < j.lastNS {
		ns = j.lastNS
	}
	j.phases = append(j.phases, PhaseSpan{Phase: phase, StartNS: j.lastNS, EndNS: ns})
	j.lastNS = ns
}

// Retry closes the failed attempt's run span and records the retry.
func (j *JobObs) Retry(attempt int, cause error, now time.Time) {
	j.Mark(PhaseRun, now)
	e := Event{Kind: EventRetry, Grid: j.g.name, Job: j.hash, Name: j.name, Worker: j.worker, Attempt: attempt}
	if cause != nil {
		e.Error = firstLine(cause.Error())
	}
	j.g.o.emit(e, now)
}

// Panic records an attempt that panicked.
func (j *JobObs) Panic(attempt int, cause error, now time.Time) {
	e := Event{Kind: EventPanic, Grid: j.g.name, Job: j.hash, Name: j.name, Worker: j.worker, Attempt: attempt}
	if cause != nil {
		e.Error = firstLine(cause.Error())
	}
	j.g.o.emit(e, now)
}

// StoreWrite closes the store-write span and records the write.
func (j *JobObs) StoreWrite(ok bool, now time.Time) {
	j.Mark(PhaseStoreWrite, now)
	e := Event{Kind: EventStoreWrite, Grid: j.g.name, Job: j.hash, Name: j.name, Worker: j.worker}
	if !ok {
		e.Status = "failed"
	}
	j.g.o.emit(e, now)
}

// Done completes the job: status and cacheHit mirror the JobResult, and
// copies-aware accounting keeps the events reconcilable with the sweep
// manifest's totals — Σ cache_hit copies equals totals.cache_hits, which
// the obs-smoke CI job pins.
func (j *JobObs) Done(status string, cacheHit bool, attempts int, elapsedMS int64, now time.Time) {
	o, g := j.g.o, j.g
	hits := 0
	if status == "ok" {
		if cacheHit {
			hits = j.copies // store replay covers every copy
		} else {
			hits = j.copies - 1 // dedup copies replay the computation
		}
	}
	if hits > 0 {
		o.emit(Event{Kind: EventCacheHit, Grid: g.name, Job: j.hash, Name: j.name,
			Worker: j.worker, CacheHit: cacheHit, Copies: hits}, now)
	}
	o.emit(Event{Kind: EventJobDone, Grid: g.name, Job: j.hash, Name: j.name, Worker: j.worker,
		Attempt: attempts, Status: status, CacheHit: cacheHit, Copies: j.copies, ElapsedMS: elapsedMS}, now)

	if o.spans != nil {
		o.spans.Add(JobSpans{
			Name: j.name, Hash: j.hash, Grid: g.name, Worker: j.worker,
			Status: status, CacheHit: cacheHit, Phases: j.phases,
		})
	}
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

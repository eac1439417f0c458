package obs

import (
	"fmt"
	"sync"
	"time"
)

// ProgressSchema identifies the live-progress JSON served at /progress.
const ProgressSchema = "dsre-progress/v1"

// keptFinishedGrids bounds how many finished grids the live view keeps
// (newest kept); unfinished grids always stay, so an observer shared by
// many engine Runs (dsre-bench's) holds a bounded list.
const keptFinishedGrids = 32

// SweepObs bundles the observability surfaces of the sweep engine: a
// typed metrics Registry, an optional structured EventSink, an optional
// per-job SpanLog, and the live-progress state the -status HTTP endpoint
// renders.  Every method takes the caller's
// clock reading — this package never reads time itself — and the engine
// guards every call with a single nil check, so a disabled observer is
// one pointer compare.
type SweepObs struct {
	// Reg is the metrics registry; never nil.  The status server exposes it
	// at /metrics.
	Reg *Registry

	start time.Time
	sink  EventSink
	spans *SpanLog

	mJobs, mOK, mFailed, mHits     *Counter
	mRetries, mPanics, mStoreFails *Counter
	mStoreWrites, mDrains, mGrids  *Counter
	mSimCycles, mStoreCorrupt      *Counter
	gQueued, gRunning, gBusy       *Gauge
	gWorkers                       *Gauge
	hJob, hQueueWait               *Histogram

	mu      sync.Mutex
	workers []workerState
	grids   []*gridState // unfinished ones plus the newest finished
	begun   int          // grids ever begun, for naming
	rate    *RateWindow
}

type workerState struct {
	busy    bool
	job     string
	sinceNS int64
}

type gridState struct {
	name           string
	total, unique  int
	queued, runs   int // live approximations while running
	done, cached   int
	failed         int
	startNS, endNS int64
	finished       bool
}

// NewSweepObs builds an observer anchored at start (the caller's clock).
// sink and spans may be nil: events and spans are then skipped while
// metrics and live progress stay on.
func NewSweepObs(start time.Time, sink EventSink, spans *SpanLog) *SweepObs {
	reg := NewRegistry()
	o := &SweepObs{
		Reg:   reg,
		start: start,
		sink:  sink,
		spans: spans,
		rate:  NewRateWindow(32),

		mJobs:         reg.Counter("dsre_sweep_jobs_total", "Sweep jobs completed (dedup copies included), any status."),
		mOK:           reg.Counter("dsre_sweep_jobs_ok_total", "Sweep jobs completed successfully."),
		mFailed:       reg.Counter("dsre_sweep_jobs_failed_total", "Sweep jobs that failed after retries."),
		mHits:         reg.Counter("dsre_sweep_cache_hits_total", "Jobs satisfied by the result store or in-sweep dedup."),
		mRetries:      reg.Counter("dsre_sweep_retries_total", "Failed attempts that were retried."),
		mPanics:       reg.Counter("dsre_sweep_panics_total", "Attempts that panicked (isolated to their job)."),
		mStoreWrites:  reg.Counter("dsre_sweep_store_writes_total", "Result objects written to the content-addressed store."),
		mStoreFails:   reg.Counter("dsre_sweep_store_write_failures_total", "Store writes that failed (cache degraded, sweep unaffected)."),
		mDrains:       reg.Counter("dsre_sweep_drains_total", "Sweeps cancelled mid-run that drained in-flight jobs."),
		mGrids:        reg.Counter("dsre_sweep_grids_total", "Engine runs (grids) started."),
		mSimCycles:    reg.Counter("dsre_sim_cycles_total", "Simulated cycles retired by live (non-cached) runs."),
		mStoreCorrupt: reg.Counter("dsre_sweep_store_corrupt_total", "Cached records rejected by payload SHA-256 verification (read as misses)."),
		gQueued:       reg.Gauge("dsre_sweep_jobs_queued", "Jobs waiting for a worker."),
		gRunning:      reg.Gauge("dsre_sweep_jobs_running", "Unique jobs currently executing."),
		gBusy:         reg.Gauge("dsre_sweep_workers_busy", "Workers currently executing a job."),
		gWorkers:      reg.Gauge("dsre_sweep_workers", "Worker pool size."),
		hJob:          reg.Histogram("dsre_sweep_job_seconds", "Wall time of computed (non-cached) jobs.", DurationBounds),
		hQueueWait:    reg.Histogram("dsre_sweep_queue_wait_seconds", "Time from sweep feed start to worker pickup.", DurationBounds),
	}
	return o
}

func (o *SweepObs) rel(t time.Time) int64 { return t.Sub(o.start).Nanoseconds() }

// Spans exposes the observer's span log (nil when span collection is off).
func (o *SweepObs) Spans() *SpanLog { return o.spans }

func (o *SweepObs) emit(e Event, now time.Time) {
	if o.sink != nil {
		e.TimeMS = now.UnixMilli()
		o.sink.Emit(e)
	}
}

// AddSimCycles accumulates live simulated cycles (lock-free).
func (o *SweepObs) AddSimCycles(n int64) {
	if n > 0 {
		o.mSimCycles.Add(n)
	}
}

// StoreCorrupt records a cached record rejected by payload verification:
// its own counter plus a store_corrupt event.  The read stays a plain
// cache miss — this is forensics, not control flow.
func (o *SweepObs) StoreCorrupt(hash, detail string, now time.Time) {
	o.mStoreCorrupt.Inc()
	o.emit(Event{Kind: EventStoreCorrupt, Job: hash, Error: firstLine(detail)}, now)
}

// Grid is the handle for one engine Run.
type Grid struct {
	o  *SweepObs
	gs *gridState
}

// GridBegin opens one engine Run of total specs (unique after dedup) on a
// pool of workers, and emits sweep_start.
func (o *SweepObs) GridBegin(total, unique, workers int, now time.Time) *Grid {
	o.mu.Lock()
	o.begun++
	gs := &gridState{
		name:    fmt.Sprintf("grid-%d", o.begun),
		total:   total,
		unique:  unique,
		queued:  total,
		startNS: o.rel(now),
	}
	o.grids = append(o.grids, gs)
	for len(o.workers) < workers {
		o.workers = append(o.workers, workerState{})
	}
	o.gWorkers.Set(int64(len(o.workers)))
	o.mu.Unlock()

	o.mGrids.Inc()
	o.gQueued.Add(int64(total))
	o.emit(Event{Kind: EventSweepStart, Grid: gs.name, Total: total, Unique: unique, Workers: workers}, now)
	return &Grid{o: o, gs: gs}
}

// Drain records the sweep's context being cancelled: queued jobs are
// abandoned while in-flight ones finish.
func (g *Grid) Drain(cause error, now time.Time) {
	g.o.mDrains.Inc()
	e := Event{Kind: EventDrain, Grid: g.gs.name}
	if cause != nil {
		e.Error = cause.Error()
	}
	g.o.emit(e, now)
}

// End closes the Run with the summary's authoritative totals and emits
// sweep_done.  Live approximations (queued/running) are snapped to zero so
// gauges read clean between runs.
func (g *Grid) End(ok, failed, cacheHits int, now time.Time) {
	o, gs := g.o, g.gs
	o.mu.Lock()
	o.gQueued.Add(int64(-gs.queued))
	gs.queued = 0
	gs.runs = 0
	gs.done = ok + failed
	gs.cached = cacheHits
	gs.failed = failed
	gs.endNS = o.rel(now)
	gs.finished = true
	o.pruneGridsLocked()
	o.mu.Unlock()
	o.emit(Event{
		Kind: EventSweepDone, Grid: gs.name, Total: gs.total,
		OK: ok, Failed: failed, CacheHits: cacheHits,
		ElapsedMS: (gs.endNS - gs.startNS) / int64(time.Millisecond),
	}, now)
}

// pruneGridsLocked drops the oldest finished grids beyond
// keptFinishedGrids, keeping the rest in begin order.
func (o *SweepObs) pruneGridsLocked() {
	drop := -keptFinishedGrids
	for _, gs := range o.grids {
		if gs.finished {
			drop++
		}
	}
	if drop <= 0 {
		return
	}
	kept := o.grids[:0]
	for _, gs := range o.grids {
		if gs.finished && drop > 0 {
			drop--
			continue
		}
		kept = append(kept, gs)
	}
	clear(o.grids[len(kept):])
	o.grids = kept
}

// JobObs tracks one unique job from pickup to completion.  It is owned by
// a single worker goroutine: Mark appends to the local span chain without
// locking; the completion path takes the observer's lock.
type JobObs struct {
	o          *SweepObs
	gs         *gridState
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
	o, gs := g.o, g.gs
	j := &JobObs{o: o, gs: gs, worker: worker, name: name, hash: hash, copies: copies, lastNS: gs.startNS}
	j.Mark(PhaseQueueWait, now)

	o.mu.Lock()
	gs.queued -= copies
	gs.runs++
	if worker >= 0 && worker < len(o.workers) {
		o.workers[worker] = workerState{busy: true, job: name, sinceNS: o.rel(now)}
	}
	o.mu.Unlock()

	o.gQueued.Add(int64(-copies))
	o.gRunning.Add(1)
	o.gBusy.Add(1)
	o.hQueueWait.Observe(float64(j.phases[0].EndNS-j.phases[0].StartNS) / float64(time.Second))
	o.emit(Event{Kind: EventJobStart, Grid: gs.name, Job: hash, Name: name, Worker: worker, Copies: copies}, now)
	return j
}

// Mark closes the current phase at now: the span runs from the end of the
// previous mark, keeping the chain contiguous.
func (j *JobObs) Mark(phase Phase, now time.Time) {
	ns := j.o.rel(now)
	if ns < j.lastNS {
		ns = j.lastNS
	}
	j.phases = append(j.phases, PhaseSpan{Phase: phase, StartNS: j.lastNS, EndNS: ns})
	j.lastNS = ns
}

// Retry closes the failed attempt's run span and records the retry.
func (j *JobObs) Retry(attempt int, cause error, now time.Time) {
	j.Mark(PhaseRun, now)
	j.o.mRetries.Inc()
	e := Event{Kind: EventRetry, Grid: j.gs.name, Job: j.hash, Name: j.name, Worker: j.worker, Attempt: attempt}
	if cause != nil {
		e.Error = firstLine(cause.Error())
	}
	j.o.emit(e, now)
}

// Panic records an attempt that panicked.
func (j *JobObs) Panic(attempt int, cause error, now time.Time) {
	j.o.mPanics.Inc()
	e := Event{Kind: EventPanic, Grid: j.gs.name, Job: j.hash, Name: j.name, Worker: j.worker, Attempt: attempt}
	if cause != nil {
		e.Error = firstLine(cause.Error())
	}
	j.o.emit(e, now)
}

// StoreWrite closes the store-write span and records the write.
func (j *JobObs) StoreWrite(ok bool, now time.Time) {
	j.Mark(PhaseStoreWrite, now)
	if ok {
		j.o.mStoreWrites.Inc()
	} else {
		j.o.mStoreFails.Inc()
	}
	e := Event{Kind: EventStoreWrite, Grid: j.gs.name, Job: j.hash, Name: j.name, Worker: j.worker}
	if !ok {
		e.Status = "failed"
	}
	j.o.emit(e, now)
}

// Done completes the job: status and cacheHit mirror the JobResult, and
// copies-aware accounting keeps every counter reconcilable with the sweep
// manifest's totals (ok, failed, cache_hits) — the obs-smoke CI job pins
// that equality.
func (j *JobObs) Done(status string, cacheHit bool, attempts int, elapsedMS int64, now time.Time) {
	o, gs := j.o, j.gs
	ok := status == "ok"
	hits := 0
	if ok {
		if cacheHit {
			hits = j.copies // store replay covers every copy
		} else {
			hits = j.copies - 1 // dedup copies replay the computation
		}
	}

	o.mu.Lock()
	gs.runs--
	gs.done += j.copies
	if ok {
		gs.cached += hits
	} else {
		gs.failed += j.copies
	}
	if j.worker >= 0 && j.worker < len(o.workers) {
		o.workers[j.worker] = workerState{}
	}
	if ok && !cacheHit {
		o.rate.Observe(now)
	}
	o.mu.Unlock()

	o.mJobs.Add(int64(j.copies))
	if ok {
		o.mOK.Add(int64(j.copies))
	} else {
		o.mFailed.Add(int64(j.copies))
	}
	if hits > 0 {
		o.mHits.Add(int64(hits))
		o.emit(Event{Kind: EventCacheHit, Grid: gs.name, Job: j.hash, Name: j.name,
			Worker: j.worker, CacheHit: cacheHit, Copies: hits}, now)
	}
	if ok && !cacheHit {
		o.hJob.Observe(float64(elapsedMS) / 1e3)
	}
	o.gRunning.Add(-1)
	o.gBusy.Add(-1)
	o.emit(Event{Kind: EventJobDone, Grid: gs.name, Job: j.hash, Name: j.name, Worker: j.worker,
		Attempt: attempts, Status: status, CacheHit: cacheHit, Copies: j.copies, ElapsedMS: elapsedMS}, now)

	if o.spans != nil {
		o.spans.Add(JobSpans{
			Name: j.name, Hash: j.hash, Grid: gs.name, Worker: j.worker,
			Status: status, CacheHit: cacheHit, Phases: j.phases,
		})
	}
}

// WorkerView is one worker's live state.
type WorkerView struct {
	Worker int    `json:"worker"`
	Busy   bool   `json:"busy"`
	Job    string `json:"job,omitempty"`
	BusyMS int64  `json:"busy_ms,omitempty"`
}

// GridView is one grid's live progress.
type GridView struct {
	Grid      string `json:"grid"`
	Total     int    `json:"total"`
	Unique    int    `json:"unique"`
	Queued    int    `json:"queued"`
	Running   int    `json:"running"`
	Done      int    `json:"done"`
	Cached    int    `json:"cached"`
	Failed    int    `json:"failed"`
	Finished  bool   `json:"finished"`
	ElapsedMS int64  `json:"elapsed_ms"`
	EtaMS     int64  `json:"eta_ms,omitempty"`
}

// ProgressView is the live-progress JSON document served at /progress.
type ProgressView struct {
	Schema     string       `json:"schema"`
	UptimeMS   int64        `json:"uptime_ms"`
	RatePerSec float64      `json:"rate_per_sec,omitempty"`
	Workers    []WorkerView `json:"workers"`
	Grids      []GridView   `json:"grids"`
}

// Progress renders the live view: per-grid queued/running/done/
// cached counts, worker occupancy, and an ETA extrapolated from the
// rolling completion-rate window.
func (o *SweepObs) Progress(now time.Time) ProgressView {
	o.mu.Lock()
	defer o.mu.Unlock()
	nowNS := o.rel(now)
	v := ProgressView{Schema: ProgressSchema, UptimeMS: nowNS / int64(time.Millisecond)}
	rate, haveRate := o.rate.Rate(now)
	if haveRate {
		v.RatePerSec = rate
	}
	for i := range o.workers {
		wv := WorkerView{Worker: i, Busy: o.workers[i].busy, Job: o.workers[i].job}
		if wv.Busy {
			wv.BusyMS = (nowNS - o.workers[i].sinceNS) / int64(time.Millisecond)
		}
		v.Workers = append(v.Workers, wv)
	}
	for _, gs := range o.grids {
		gv := GridView{
			Grid: gs.name, Total: gs.total, Unique: gs.unique,
			Queued: gs.queued, Running: gs.runs,
			Done: gs.done, Cached: gs.cached, Failed: gs.failed,
			Finished: gs.finished,
		}
		endNS := gs.endNS
		if !gs.finished {
			endNS = nowNS
		}
		gv.ElapsedMS = (endNS - gs.startNS) / int64(time.Millisecond)
		if !gs.finished && haveRate && rate > 0 {
			remaining := gs.queued + gs.runs
			gv.EtaMS = int64(float64(remaining) / rate * 1e3)
		}
		v.Grids = append(v.Grids, gv)
	}
	return v
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

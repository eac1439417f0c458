package obs

import (
	"sync"
	"time"
)

// ServeProgressSchema identifies the daemon live-progress JSON served at
// /progress by dsre-serve.
const ServeProgressSchema = "dsre-serve-progress/v2"

// ServeObs is the observability surface of a dsre-serve daemon: typed
// metrics for the job queue, lease protocol and upload path; submit/lease/
// requeue/upload lifecycle events; per-fleet-job spans (queue-wait →
// remote-run → upload) on one Chrome-trace lane per worker; and the live
// state behind /progress.  Like SweepObs it never reads a clock — every
// hook takes the caller's time — and never spawns goroutines, so it stays
// inside the determinism-audited obs package.
//
// The queue calls every hook while holding its own lock; ServeObs takes
// its lock second and never calls back into the queue, so the order is
// acyclic.  Lease-gauge accounting is exact by protocol: every granted
// lease is closed by exactly one of JobDone (lease attached),
// UploadDuplicate (lease attached) or LeaseExpired; callers pass an empty
// lease when the lease already ended (a late upload from a crashed
// worker).
type ServeObs struct {
	// Reg is the registry the metrics live in (shared with the daemon's
	// engine SweepObs so the daemon exposes one /metrics page).
	Reg *Registry

	start    time.Time
	sink     EventSink
	spans    *SpanLog
	laneBase int // first Chrome-trace lane for fleet peers

	mSubmits, mSubmitSpecs           *Counter
	mCacheHits, mQueued              *Counter
	mLeases, mHeartbeats, mExpiries  *Counter
	mRequeues, mUploads, mUploadDup  *Counter
	mDone, mFailed, mExecutions      *Counter
	mDrains                          *Counter
	gQueue, gLeased, gPeers, gSweeps *Gauge
	hQueueWait, hRemoteRun           *Histogram

	mu       sync.Mutex
	draining bool
	peers    map[string]*peerState
	order    []string
	sweeps   []*serveSweepState
	leases   map[string]*fleetSpan
}

type peerState struct {
	lane         int
	leased       int
	done, failed int
	lastSeenNS   int64
}

type serveSweepState struct {
	id, tenant     string
	total, unique  int
	done, cached   int
	failed         int
	startNS, endNS int64
	finished       bool
}

// fleetSpan accumulates one fleet job's daemon-side phase chain.
type fleetSpan struct {
	peer        string
	name, hash  string
	trace, span string // propagated trace-context IDs (hex)
	attempt     int
	leasedNS    int64
	lastNS      int64
	phases      []PhaseSpan
}

// NewServeObs builds a daemon observer registering into reg, anchored at
// start.  sink and spans may be nil.  laneBase is the first Chrome-trace
// worker lane fleet peers render on (pass the local engine's worker count
// so daemon-local and fleet lanes never collide).
func NewServeObs(reg *Registry, start time.Time, sink EventSink, spans *SpanLog, laneBase int) *ServeObs {
	o := &ServeObs{
		Reg:      reg,
		start:    start,
		sink:     sink,
		spans:    spans,
		laneBase: laneBase,
		peers:    map[string]*peerState{},
		leases:   map[string]*fleetSpan{},

		mSubmits:     reg.Counter("dsre_serve_submits_total", "Sweep grids submitted to the daemon."),
		mSubmitSpecs: reg.Counter("dsre_serve_submit_specs_total", "Job specs submitted (before dedup)."),
		mCacheHits:   reg.Counter("dsre_serve_cache_hits_total", "Submitted specs satisfied without a new execution (store hits and dedup copies)."),
		mQueued:      reg.Counter("dsre_serve_jobs_queued_total", "Unique jobs enqueued for execution."),
		mLeases:      reg.Counter("dsre_serve_leases_total", "Job leases granted to workers."),
		mHeartbeats:  reg.Counter("dsre_serve_heartbeats_total", "Lease heartbeats received."),
		mExpiries:    reg.Counter("dsre_serve_lease_expiries_total", "Leases expired by missed heartbeats."),
		mRequeues:    reg.Counter("dsre_serve_requeues_total", "Jobs returned to the queue for another attempt."),
		mUploads:     reg.Counter("dsre_serve_uploads_total", "Fleet result uploads accepted."),
		mUploadDup:   reg.Counter("dsre_serve_upload_duplicates_total", "Uploads dropped by first-write-wins dedup."),
		mDone:        reg.Counter("dsre_serve_jobs_done_total", "Unique jobs completed successfully."),
		mFailed:      reg.Counter("dsre_serve_jobs_failed_total", "Unique jobs that failed terminally."),
		mExecutions:  reg.Counter("dsre_serve_executions_total", "Unique jobs completed by a live (non-cached) run."),
		mDrains:      reg.Counter("dsre_serve_drains_total", "Daemon drains (SIGTERM graceful shutdowns)."),
		gQueue:       reg.Gauge("dsre_serve_queue_depth", "Unique jobs waiting for a lease."),
		gLeased:      reg.Gauge("dsre_serve_jobs_leased", "Leases currently outstanding."),
		gPeers:       reg.Gauge("dsre_serve_workers", "Distinct workers that have leased or heartbeated."),
		gSweeps:      reg.Gauge("dsre_serve_sweeps_open", "Submitted sweeps not yet finished."),
		hQueueWait:   reg.Histogram("dsre_serve_queue_wait_seconds", "Time from enqueue to lease grant.", DurationBounds),
		hRemoteRun:   reg.Histogram("dsre_serve_remote_run_seconds", "Time from lease grant to result upload.", DurationBounds),
	}
	return o
}

func (o *ServeObs) rel(t time.Time) int64 { return t.Sub(o.start).Nanoseconds() }

// Spans exposes the daemon's span log (the /v1/sweeps/{id}/trace endpoint
// stitches from it); nil when span collection is off.
func (o *ServeObs) Spans() *SpanLog { return o.spans }

// Rel converts a caller clock reading into the observer's relative
// nanosecond timeline (the queue stamps enqueue times with it).
func (o *ServeObs) Rel(t time.Time) int64 { return o.rel(t) }

func (o *ServeObs) emit(e Event, now time.Time) {
	if o.sink != nil {
		e.TimeMS = now.UnixMilli()
		o.sink.Emit(e)
	}
}

// peerLocked returns (creating if needed) the live state for a worker
// name.  Callers hold o.mu.
func (o *ServeObs) peerLocked(name string) *peerState {
	p, ok := o.peers[name]
	if !ok {
		p = &peerState{lane: o.laneBase + len(o.order)}
		o.peers[name] = p
		o.order = append(o.order, name)
		o.gPeers.Set(int64(len(o.order)))
	}
	return p
}

// SweepSubmitted records one accepted grid: total specs, unique new jobs,
// how many specs were satisfied immediately (store hits + in-submit dedup
// copies), and the sweep's hex trace ID.
func (o *ServeObs) SweepSubmitted(id, tenant, trace string, total, unique, cached int, now time.Time) {
	o.mu.Lock()
	o.sweeps = append(o.sweeps, &serveSweepState{
		id: id, tenant: tenant, total: total, unique: unique,
		cached: cached, done: cached, startNS: o.rel(now),
	})
	o.mu.Unlock()
	o.mSubmits.Inc()
	o.mSubmitSpecs.Add(int64(total))
	if cached > 0 {
		o.mCacheHits.Add(int64(cached))
	}
	o.gSweeps.Add(1)
	o.emit(Event{Kind: EventSubmit, Sweep: id, Tenant: tenant, Trace: trace, Total: total, Unique: unique, CacheHits: cached}, now)
}

// SweepProgress advances one sweep's live counters by done/cached/failed
// spec copies; finished closes it.
func (o *ServeObs) SweepProgress(id string, done, cached, failed int, finished bool, now time.Time) {
	o.mu.Lock()
	for _, s := range o.sweeps {
		if s.id != id {
			continue
		}
		s.done += done
		s.cached += cached
		s.failed += failed
		if finished && !s.finished {
			s.finished = true
			s.endNS = o.rel(now)
			o.gSweeps.Add(-1)
		}
		break
	}
	o.mu.Unlock()
	if cached > 0 {
		o.mCacheHits.Add(int64(cached))
	}
}

// JobQueued records one unique job entering the queue.
func (o *ServeObs) JobQueued() {
	o.mQueued.Inc()
	o.gQueue.Add(1)
}

// JobDequeued reverses JobQueued's gauge when a job leaves the queue by
// any path other than a lease grant (a late upload from a crashed worker
// completed it while it sat requeued).
func (o *ServeObs) JobDequeued() {
	o.gQueue.Add(-1)
}

// Lease records a worker leasing one job.  enqueuedNS is the queue's
// relative enqueue stamp (from Rel) anchoring the queue-wait span; trace
// and span are the lease attempt's propagated trace-context IDs (hex,
// empty when tracing is off).
func (o *ServeObs) Lease(peer, hash, name, lease, trace, span string, attempt int, enqueuedNS int64, now time.Time) {
	ns := o.rel(now)
	o.mu.Lock()
	p := o.peerLocked(peer)
	p.leased++
	p.lastSeenNS = ns
	fs := &fleetSpan{peer: peer, name: name, hash: hash, trace: trace, span: span, attempt: attempt, lastNS: enqueuedNS}
	fs.mark(PhaseQueueWait, ns)
	fs.leasedNS = ns
	o.leases[lease] = fs
	o.mu.Unlock()
	o.mLeases.Inc()
	o.gQueue.Add(-1)
	o.gLeased.Add(1)
	o.hQueueWait.Observe(float64(ns-enqueuedNS) / float64(time.Second))
	o.emit(Event{Kind: EventLease, Job: hash, Name: name, Peer: peer, Lease: lease, Trace: trace, Span: span, Attempt: attempt}, now)
}

// Heartbeat records a lease heartbeat.
func (o *ServeObs) Heartbeat(peer string, now time.Time) {
	o.mu.Lock()
	o.peerLocked(peer).lastSeenNS = o.rel(now)
	o.mu.Unlock()
	o.mHeartbeats.Inc()
}

// LeaseExpired closes a lease whose heartbeats stopped.  The queue follows
// up with JobRequeued or JobDone(failed, no lease).  The abandoned
// attempt's daemon-side chain is recorded in the span log with status
// "abandoned", so a stitched trace shows the lost attempt next to the
// retry that succeeded.
func (o *ServeObs) LeaseExpired(peer, hash, name, lease string, now time.Time) {
	ns := o.rel(now)
	var trace string
	o.mu.Lock()
	p, ok := o.peers[peer]
	if ok && p.leased > 0 {
		p.leased--
	}
	if fs := o.leases[lease]; fs != nil {
		trace = fs.trace
		fs.mark(PhaseRemoteRun, ns)
		if o.spans != nil && ok {
			o.spans.Add(JobSpans{
				Name: fs.name, Hash: fs.hash, Grid: "serve", Worker: p.lane,
				Status: "abandoned", Trace: fs.trace, Span: fs.span,
				Origin: "daemon", Peer: fs.peer, Attempt: fs.attempt, Phases: fs.phases,
			})
		}
	}
	delete(o.leases, lease)
	o.mu.Unlock()
	o.mExpiries.Inc()
	o.gLeased.Add(-1)
	o.emit(Event{Kind: EventLeaseExpired, Job: hash, Name: name, Peer: peer, Lease: lease, Trace: trace}, now)
}

// JobRequeued records a job returned to the queue for another attempt.
// When the requeue is caused by an upload reporting a failed run, the
// uploader's still-valid lease closes here (pass it); an expiry-driven
// requeue already closed its lease in LeaseExpired (pass "").
func (o *ServeObs) JobRequeued(peer, hash, name, lease string, attempt int, now time.Time) {
	o.mu.Lock()
	if lease != "" {
		if p, ok := o.peers[peer]; ok && p.leased > 0 {
			p.leased--
		}
		delete(o.leases, lease)
	}
	o.mu.Unlock()
	if lease != "" {
		o.gLeased.Add(-1)
	}
	o.mRequeues.Inc()
	o.gQueue.Add(1)
	o.emit(Event{Kind: EventRequeue, Job: hash, Name: name, Peer: peer, Lease: lease, Attempt: attempt}, now)
}

// UploadDuplicate records an upload dropped by first-write-wins dedup: the
// job was already completed by another writer, so nothing changes state.
// lease is the uploader's still-valid lease (closed here), or empty when
// it already expired.
func (o *ServeObs) UploadDuplicate(peer, hash, name, lease string, now time.Time) {
	ns := o.rel(now)
	o.mu.Lock()
	if lease != "" {
		p, ok := o.peers[peer]
		if ok && p.leased > 0 {
			p.leased--
		}
		if fs := o.leases[lease]; fs != nil {
			fs.mark(PhaseRemoteRun, ns)
			fs.mark(PhaseUpload, ns)
			if o.spans != nil && ok {
				o.spans.Add(JobSpans{
					Name: fs.name, Hash: fs.hash, Grid: "serve", Worker: p.lane,
					Status: "duplicate", Trace: fs.trace, Span: fs.span,
					Origin: "daemon", Peer: fs.peer, Attempt: fs.attempt, Phases: fs.phases,
				})
			}
		}
		delete(o.leases, lease)
	}
	o.mu.Unlock()
	if lease != "" {
		o.gLeased.Add(-1)
	}
	o.mUploadDup.Inc()
	o.emit(Event{Kind: EventUpload, Job: hash, Name: name, Peer: peer, Lease: lease, Status: "duplicate"}, now)
}

// JobDone closes one unique job: peer is the completing worker ("local"
// for daemon-batched jobs), lease its still-valid lease (empty when the
// lease already expired — a late upload that still won first-write-wins),
// status mirrors the job result, cacheHit marks a store replay, and
// upload marks a fleet upload versus a local completion.
func (o *ServeObs) JobDone(peer, hash, name, lease, status string, cacheHit, upload bool, elapsedMS int64, now time.Time) {
	ns := o.rel(now)
	ok := status == "ok"

	o.mu.Lock()
	p := o.peerLocked(peer)
	if lease != "" && p.leased > 0 {
		p.leased--
	}
	p.lastSeenNS = ns
	if ok {
		p.done++
	} else {
		p.failed++
	}
	var fs *fleetSpan
	if lease != "" {
		fs = o.leases[lease]
		delete(o.leases, lease)
	}
	if fs != nil {
		fs.mark(PhaseRemoteRun, ns)
		fs.mark(PhaseUpload, ns)
		o.hRemoteRun.Observe(float64(ns-fs.leasedNS) / float64(time.Second))
		if o.spans != nil {
			o.spans.Add(JobSpans{
				Name: fs.name, Hash: fs.hash, Grid: "serve", Worker: p.lane,
				Status: status, CacheHit: cacheHit, Trace: fs.trace, Span: fs.span,
				Origin: "daemon", Peer: fs.peer, Attempt: fs.attempt, Phases: fs.phases,
			})
		}
	}
	o.mu.Unlock()

	if lease != "" {
		o.gLeased.Add(-1)
	}
	if ok {
		o.mDone.Inc()
		if !cacheHit {
			o.mExecutions.Inc()
		}
	} else {
		o.mFailed.Inc()
	}
	if upload {
		o.mUploads.Inc()
		o.emit(Event{Kind: EventUpload, Job: hash, Name: name, Peer: peer, Lease: lease,
			Status: status, CacheHit: cacheHit, ElapsedMS: elapsedMS}, now)
	}
}

// WorkerSpans ingests span chains a fleet worker shipped with its result
// upload.  The server stamps Origin with the authenticated worker name
// before calling; chains land in the same log the daemon-side chains use,
// so one stitched trace covers both processes.
func (o *ServeObs) WorkerSpans(chains []JobSpans) {
	if o.spans == nil {
		return
	}
	for _, c := range chains {
		o.spans.Add(c)
	}
}

// Drain records the daemon draining: in-flight jobs finished, manifests
// flushed, queued jobs abandoned.
func (o *ServeObs) Drain(reason string, queuedAbandoned int, now time.Time) {
	o.mu.Lock()
	o.draining = true
	o.mu.Unlock()
	o.mDrains.Inc()
	o.emit(Event{Kind: EventServeDrain, Error: reason, Total: queuedAbandoned}, now)
}

func (fs *fleetSpan) mark(p Phase, ns int64) {
	if ns < fs.lastNS {
		ns = fs.lastNS
	}
	fs.phases = append(fs.phases, PhaseSpan{Phase: p, StartNS: fs.lastNS, EndNS: ns})
	fs.lastNS = ns
}

// ServeTotals is the counter fold of the daemon progress document.
type ServeTotals struct {
	Sweeps           int64 `json:"sweeps"`
	Specs            int64 `json:"specs"`
	UniqueJobs       int64 `json:"unique_jobs"`
	Queued           int64 `json:"queued"`
	Leased           int64 `json:"leased"`
	Done             int64 `json:"done"`
	Failed           int64 `json:"failed"`
	CacheHits        int64 `json:"cache_hits"`
	Executions       int64 `json:"executions"`
	Uploads          int64 `json:"uploads"`
	UploadDuplicates int64 `json:"upload_duplicates"`
	Requeues         int64 `json:"requeues"`
	LeaseExpiries    int64 `json:"lease_expiries"`
}

// ServePeerView is one worker's live state.
type ServePeerView struct {
	Peer       string `json:"peer"`
	Leased     int    `json:"leased"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	LastSeenMS int64  `json:"last_seen_ms"`
}

// ServeSweepView is one submitted sweep's live progress.
type ServeSweepView struct {
	Sweep     string `json:"sweep"`
	Tenant    string `json:"tenant"`
	Total     int    `json:"total"`
	Unique    int    `json:"unique"`
	Done      int    `json:"done"`
	Cached    int    `json:"cached"`
	Failed    int    `json:"failed"`
	Finished  bool   `json:"finished"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// ServeProgressView is the dsre-serve-progress/v2 document.  Engine nests
// the daemon's local sweep-engine progress when local execution is on.
type ServeProgressView struct {
	Schema   string           `json:"schema"`
	UptimeMS int64            `json:"uptime_ms"`
	Draining bool             `json:"draining"`
	Totals   ServeTotals      `json:"totals"`
	Workers  []ServePeerView  `json:"workers"`
	Sweeps   []ServeSweepView `json:"sweeps"`
	Engine   *ProgressView    `json:"engine,omitempty"`
}

// Progress renders the daemon's live view.  Workers list in first-contact
// order; sweeps in submission order.
func (o *ServeObs) Progress(now time.Time) ServeProgressView {
	nowNS := o.rel(now)
	v := ServeProgressView{
		Schema:   ServeProgressSchema,
		UptimeMS: nowNS / int64(time.Millisecond),
		Totals: ServeTotals{
			Sweeps:           o.mSubmits.Value(),
			Specs:            o.mSubmitSpecs.Value(),
			UniqueJobs:       o.mQueued.Value(),
			Queued:           o.gQueue.Value(),
			Leased:           o.gLeased.Value(),
			Done:             o.mDone.Value(),
			Failed:           o.mFailed.Value(),
			CacheHits:        o.mCacheHits.Value(),
			Executions:       o.mExecutions.Value(),
			Uploads:          o.mUploads.Value(),
			UploadDuplicates: o.mUploadDup.Value(),
			Requeues:         o.mRequeues.Value(),
			LeaseExpiries:    o.mExpiries.Value(),
		},
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	v.Draining = o.draining
	for _, name := range o.order {
		p := o.peers[name]
		v.Workers = append(v.Workers, ServePeerView{
			Peer: name, Leased: p.leased, Done: p.done, Failed: p.failed,
			LastSeenMS: p.lastSeenNS / int64(time.Millisecond),
		})
	}
	for _, s := range o.sweeps {
		sv := ServeSweepView{
			Sweep: s.id, Tenant: s.tenant, Total: s.total, Unique: s.unique,
			Done: s.done, Cached: s.cached, Failed: s.failed, Finished: s.finished,
		}
		endNS := s.endNS
		if !s.finished {
			endNS = nowNS
		}
		sv.ElapsedMS = (endNS - s.startNS) / int64(time.Millisecond)
		v.Sweeps = append(v.Sweeps, sv)
	}
	return v
}

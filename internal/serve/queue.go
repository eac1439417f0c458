package serve

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/sweep"
)

// job is one unique simulation point, content-addressed by its spec hash.
// Every submitted spec copy with the same hash shares this one job — the
// service-level form of the engine's in-sweep dedup.
type job struct {
	spec sweep.JobSpec // canonical spelling
	hash string
	name string

	state  JobState
	result *sweep.JobResult // the engine's result (report dropped) once terminal
	sweeps []*sweepRun      // submissions referencing this job; the first queued it
}

// sweepRun is one accepted submission: the specs in order, the hash each
// resolved to, and how many unique jobs are still open.
type sweepRun struct {
	id        string
	tenant    string
	trace     tracing.TraceID
	specs     []sweep.JobSpec
	hashes    []string
	open      int // unique non-terminal jobs
	uniqueNew int // unique jobs this submit queued
}

// jobTable is the daemon's job table: unique jobs keyed by content hash,
// the queued ones in arrival order, and the submissions that reference
// them.  The dispatcher takes queued jobs, runs them through the engine
// and hands each result back with finish, which fans it out to every
// sweep waiting on the job.
type jobTable struct {
	sweepsOpen *obs.Gauge

	mu       sync.Mutex
	jobs     map[string]*job
	queue    []*job // queued jobs in arrival order
	sweeps   map[string]*sweepRun
	order    []string // sweep submission order
	sweepSeq int

	wake chan struct{} // 1-buffered: a job was queued
}

func newJobTable(sweepsOpen *obs.Gauge) *jobTable {
	return &jobTable{
		sweepsOpen: sweepsOpen,
		jobs:       map[string]*job{},
		sweeps:     map[string]*sweepRun{},
		wake:       make(chan struct{}, 1),
	}
}

// enqueueLocked appends a job to the queue and nudges the dispatcher
// without blocking.
func (t *jobTable) enqueueLocked(j *job) {
	j.state = JobQueued
	t.queue = append(t.queue, j)
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// submit registers one sweep under the submit request's trace: specs with
// their precomputed content hashes (the server canonicalises, validates
// and hashes before locking), and hits marking hashes the store already
// holds.  Specs whose hash matches
// an existing job attach to it; store hits become already-done jobs; the
// rest queue.  It returns the sweep's document as of submission.
func (t *jobTable) submit(tenant string, specs []sweep.JobSpec, hashes []string, hits map[string]bool, trace tracing.TraceID) SweepView {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepSeq++
	s := &sweepRun{
		id:     fmt.Sprintf("s-%04d", t.sweepSeq),
		tenant: tenant,
		trace:  trace,
		specs:  specs,
		hashes: hashes,
	}
	seen := map[string]bool{}
	for i, h := range hashes {
		if seen[h] {
			continue
		}
		seen[h] = true
		j, ok := t.jobs[h]
		if !ok {
			j = &job{spec: specs[i], hash: h, name: specs[i].Name()}
			t.jobs[h] = j
			if hits[h] {
				j.state = JobDone
				j.result = &sweep.JobResult{Spec: j.spec, Hash: h, Status: sweep.StatusOK, CacheHit: true}
			} else {
				t.enqueueLocked(j)
				s.uniqueNew++
			}
		}
		j.sweeps = append(j.sweeps, s)
		if !j.state.Terminal() {
			s.open++
		}
	}
	t.sweeps[s.id] = s
	t.order = append(t.order, s.id)
	if s.open > 0 {
		t.sweepsOpen.Add(1)
	}
	return t.viewLocked(s, true)
}

// take hands up to max queued jobs, oldest first, to the dispatcher and
// marks them running.
func (t *jobTable) take(max int) []*job {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := min(max, len(t.queue))
	batch := append([]*job(nil), t.queue[:n]...)
	t.queue = t.queue[n:]
	for _, j := range batch {
		j.state = JobRunning
	}
	return batch
}

// queued reports how many jobs wait for the dispatcher.
func (t *jobTable) queued() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queue)
}

// finish records the engine's result for a running job and fans it out to
// every sweep that references the job.  A failed result is terminal (the
// engine already spent its retries).  A job the drain's hard cancel stopped
// before it started (r.NotRun) goes back to the queue, where the drain
// counts it abandoned and the manifest records it as not run.
func (t *jobTable) finish(j *job, r sweep.JobResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.NotRun() {
		t.enqueueLocked(j)
		return
	}
	j.state = JobFailed
	if r.Status == sweep.StatusOK {
		j.state = JobDone
	}
	r.Spec, r.Hash, r.Report = j.spec, j.hash, nil
	j.result = &r
	for _, s := range j.sweeps {
		s.open--
		if s.open == 0 {
			t.sweepsOpen.Add(-1)
		}
	}
}

// sweepIDs lists submitted sweeps in submission order.
func (t *jobTable) sweepIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.order...)
}

// view renders one sweep's dsre-serve-sweep/v2 document; withJobs
// includes the per-spec job table.
func (t *jobTable) view(id string, withJobs bool) (SweepView, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	return t.viewLocked(s, withJobs), true
}

// isHit reports whether this copy of a done job was satisfied without a
// fresh execution: a store replay, a dedup copy after the first, or a
// job another sweep queued and ran.  first records the hashes already
// seen in this sweep.
func isHit(s *sweepRun, j *job, first map[string]bool) bool {
	executed := j.state == JobDone && !j.result.CacheHit
	hit := j.state == JobDone && (!executed || first[j.hash] || s != j.sweeps[0])
	first[j.hash] = true
	return hit
}

func (t *jobTable) viewLocked(s *sweepRun, withJobs bool) SweepView {
	v := SweepView{
		Schema: SweepSchema, Sweep: s.id, Tenant: s.tenant, Trace: s.trace.String(),
		Total: len(s.specs), Unique: s.uniqueNew, Finished: s.open == 0,
	}
	first := map[string]bool{}
	for _, h := range s.hashes {
		j := t.jobs[h]
		hit := isHit(s, j, first)
		switch j.state {
		case JobDone:
			v.Done++
			if hit {
				v.CacheHits++
			}
		case JobFailed:
			v.Failed++
		case JobQueued, JobRunning:
		}
		if withJobs {
			jv := JobView{Hash: h, Name: j.name, State: j.state.String(), CacheHit: hit}
			if j.result != nil {
				jv.Attempts, jv.Error = j.result.Attempts, j.result.Error
			}
			v.Jobs = append(v.Jobs, jv)
		}
	}
	return v
}

// manifest renders one sweep as a dsre-sweep-manifest/v1 document —
// byte-compatible with dsre-sweep's own output, so -resume and
// dsre-explain -manifest work on daemon sweeps unchanged.  Copies beyond
// the first of an executed point read as cache hits, exactly like the
// engine's in-sweep dedup.  When the sweep is unfinished, open jobs
// record as failed "not run" (the drain flush); finished reports whether
// that happened.
func (t *jobTable) manifest(id string) (*sweep.Manifest, bool, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sweeps[id]
	if !ok {
		return nil, false, false
	}
	sum := &sweep.Summary{}
	first := map[string]bool{}
	for _, h := range s.hashes {
		j := t.jobs[h]
		var r sweep.JobResult
		if j.state.Terminal() {
			r = *j.result
			if isHit(s, j, first) {
				r.CacheHit = true
				r.Elapsed = 0
			}
		} else {
			r = sweep.JobResult{
				Spec: j.spec, Hash: h, Status: sweep.StatusFailed,
				Error: fmt.Sprintf("not run: daemon drained while %s", j.state),
			}
		}
		sum.Jobs = append(sum.Jobs, r)
		switch r.Status {
		case sweep.StatusOK:
			sum.OK++
			if r.CacheHit {
				sum.CacheHits++
			}
		default:
			sum.Failed++
		}
	}
	return sweep.NewManifest(sum), s.open == 0, true
}

// trace returns one sweep's trace ID and the set of its job hashes.
func (t *jobTable) trace(id string) (tracing.TraceID, map[string]bool, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sweeps[id]
	if !ok {
		return tracing.TraceID{}, nil, false
	}
	hashes := make(map[string]bool, len(s.hashes))
	for _, h := range s.hashes {
		hashes[h] = true
	}
	return s.trace, hashes, true
}

package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Job statuses recorded in results and manifests.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Runner executes one spec and returns its report.  The default runner
// simulates through the repro façade with memoized workload preparation;
// tests substitute their own.
type Runner func(ctx context.Context, spec JobSpec) (*telemetry.Report, error)

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each job attempt; zero means no per-job timeout.
	Timeout time.Duration
	// Retries is how many extra attempts a failing job gets (transient
	// failures; a deterministic failure just fails that many times).
	Retries int
	// Store caches results content-addressed; nil disables caching.
	Store *DirStore
	// Progress receives per-job completion lines; nil is silent.
	Progress *Reporter
	// Runner overrides job execution (tests); nil selects the default
	// simulate-and-verify runner.
	Runner Runner
	// Obs receives sweep-level observability signals: metrics, lifecycle
	// events, per-job spans and live progress.  nil disables every hook at
	// the cost of one pointer compare — the zero-alloc fast path and
	// byte-identity pins run with Obs off.
	Obs *obs.SweepObs
}

// JobResult is the outcome of one job.  Report is carried in memory for
// folding into experiment tables but excluded from manifests — the store
// holds the payload, the manifest the metadata.
type JobResult struct {
	Spec     JobSpec `json:"spec"`
	Hash     string  `json:"hash"`
	Status   string  `json:"status"`
	CacheHit bool    `json:"cache_hit"`
	Attempts int     `json:"attempts"`
	Elapsed  int64   `json:"elapsed_ms"`
	Error    string  `json:"error,omitempty"`

	Report *telemetry.Report `json:"-"`
}

// NotRun reports whether the job never reached a worker: Run's context was
// cancelled before the job was fed.  Such a result is failed with no
// attempts, yet has a hash; an invalid spec has none, and every executed
// job has at least one attempt.
func (r *JobResult) NotRun() bool {
	return r.Status == StatusFailed && r.Attempts == 0 && r.Hash != ""
}

// Summary is one Engine.Run's outcome: per-job results in spec order plus
// the fold every consumer wants.
type Summary struct {
	Jobs      []JobResult
	OK        int
	Failed    int
	CacheHits int
	Elapsed   time.Duration
}

// FirstError returns the first failed job's error, or "".
func (s *Summary) FirstError() string {
	for _, j := range s.Jobs {
		if j.Status == StatusFailed {
			return fmt.Sprintf("%s: %s", j.Spec.Name(), j.Error)
		}
	}
	return ""
}

// Engine executes job specs on a bounded worker pool.  It may be used for
// several Run calls; the workload-preparation memo persists across them,
// so successive experiments over the same kernels share program builds and
// golden-model runs.
type Engine struct {
	opts Options

	// Live-run throughput tally (see Tally).  Atomics because the default
	// runner executes on the worker pool.
	simCycles     atomic.Int64
	simWallMicros atomic.Int64

	mu    sync.Mutex
	preps map[prepKey]*prepEntry
}

// Tally returns the cumulative simulated cycles and simulator wall time of
// every live (non-cached) run the default runner has executed on this
// engine.  Cache hits and replayed duplicates contribute nothing, so the
// quotient is a genuine simulation rate; dsre-bench diffs successive
// tallies to attribute throughput to each artifact.
func (e *Engine) Tally() (cycles int64, wall time.Duration) {
	return e.simCycles.Load(), time.Duration(e.simWallMicros.Load()) * time.Microsecond
}

// New creates an engine.  The zero Options value is usable: GOMAXPROCS
// workers, no timeout, no retries, no cache, silent.
func New(opts Options) *Engine {
	e := &Engine{opts: opts, preps: make(map[prepKey]*prepEntry)}
	if e.opts.Runner == nil {
		e.opts.Runner = e.simulate
	}
	// Payload corruption feeds the observer's store_corrupt event;
	// corruption stays a plain miss either way.
	if e.opts.Obs != nil && e.opts.Store != nil {
		obs := e.opts.Obs
		e.opts.Store.SetOnCorrupt(func(hash, detail string) {
			obs.StoreCorrupt(hash, detail, time.Now())
		})
	}
	return e
}

// prepKey identifies a workload build: everything that determines the
// program, initial state and golden-model run.
type prepKey struct {
	workload     string
	size, unroll int
	seed         uint64
}

// prepEntry memoizes one repro.Prepare call; the Once gates concurrent
// jobs of one experiment onto a single build.
type prepEntry struct {
	once sync.Once
	p    *repro.Prepared
	err  error
}

// prepare returns the memoized workload+golden for a spec, building it at
// most once per engine even under concurrency.
func (e *Engine) prepare(s JobSpec) (*repro.Prepared, error) {
	k := prepKey{s.Workload, s.Size, s.Unroll, s.Seed}
	e.mu.Lock()
	en, ok := e.preps[k]
	if !ok {
		en = &prepEntry{}
		e.preps[k] = en
	}
	e.mu.Unlock()
	en.once.Do(func() {
		en.p, en.err = repro.Prepare(k.workload, k.size, k.unroll, k.seed)
	})
	return en.p, en.err
}

// spanCtxKey carries the job's *obs.JobObs through the runner context so
// the default runner can split the prepare phase out of the run span.
// Custom runners simply never look it up and fold prepare into run.
type spanCtxKey struct{}

// jobSpan returns the job observer threaded through the context, or nil.
func jobSpan(ctx context.Context) *obs.JobObs {
	jo, _ := ctx.Value(spanCtxKey{}).(*obs.JobObs)
	return jo
}

// simulate is the default runner: memoized prepare, then a verified
// simulation under the job's context.
func (e *Engine) simulate(ctx context.Context, spec JobSpec) (*telemetry.Report, error) {
	p, err := e.prepare(spec)
	if jo := jobSpan(ctx); jo != nil {
		jo.Mark(obs.PhasePrepare, time.Now())
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := repro.RunPrepared(ctx, spec.Config(), p)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	e.simCycles.Add(res.Cycles)
	e.simWallMicros.Add(wall.Microseconds())
	if e.opts.Obs != nil {
		e.opts.Obs.AddSimCycles(res.Cycles)
	}
	rep := res.Report()
	rep.StampWall(wall)
	return rep, nil
}

// Run executes the specs and returns their results in spec order.  A
// failing, panicking or timed-out job yields a failed JobResult with the
// spec attached — never a dead sweep; the only error Run itself returns is
// the context's, after recording every job that did not get to run.
func (e *Engine) Run(ctx context.Context, specs []JobSpec) (*Summary, error) {
	start := time.Now()
	results := make([]JobResult, len(specs))

	// Hash everything up front: an unhashable spec is invalid and fails
	// without occupying a worker, and duplicate hashes collapse onto one
	// execution (distinct spellings of the same point are common — an
	// explicit default equals the implied one).  One keyer encodes each
	// distinct machine configuration of the grid once.
	type group struct{ indices []int }
	groups := make(map[string]*group)
	var order []string
	keys := newKeyer()
	for i, s := range specs {
		h, err := keys.hash(s)
		if err == nil {
			err = s.Validate()
		}
		if err != nil {
			results[i] = JobResult{Spec: s, Status: StatusFailed, Attempts: 0, Error: err.Error()}
			continue
		}
		results[i].Spec = s
		results[i].Hash = h
		g, ok := groups[h]
		if !ok {
			g = &group{}
			groups[h] = g
			order = append(order, h)
		}
		g.indices = append(g.indices, i)
	}

	if e.opts.Progress != nil {
		e.opts.Progress.begin(len(specs), len(specs)-len(order))
	}

	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) && len(order) > 0 {
		workers = len(order)
	}

	// One Grid handle per Run; nil when observability is off so every hook
	// below stays a single pointer compare.
	var grid *obs.Grid
	if e.opts.Obs != nil {
		grid = e.opts.Obs.GridBegin(len(specs), len(order), workers, time.Now())
	}

	jobs := make(chan string)
	var wg sync.WaitGroup
	var resMu sync.Mutex // guards results writes from workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for h := range jobs {
				g := groups[h]
				r := e.executeJob(ctx, specs[g.indices[0]], h, grid, worker, len(g.indices))
				resMu.Lock()
				for gi, idx := range g.indices {
					rr := r
					rr.Spec = specs[idx]
					// The extra spellings of a deduplicated point did not
					// recompute: account them as hits.
					if gi > 0 && rr.Status == StatusOK {
						rr.CacheHit = true
						rr.Elapsed = 0
					}
					results[idx] = rr
				}
				resMu.Unlock()
				if e.opts.Progress != nil {
					e.opts.Progress.jobDone(r, len(g.indices))
				}
			}
		}(w)
	}

feed:
	for _, h := range order {
		select {
		case jobs <- h:
		case <-ctx.Done():
			// The sweep is draining: in-flight jobs finish, the rest of the
			// queue is abandoned (and recorded as not-run below).
			if grid != nil {
				grid.Drain(ctx.Err(), time.Now())
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Jobs the cancelled context never fed are recorded as failed, spec
	// attached, so a resumed sweep knows exactly what is left.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Status == "" {
				results[i].Status = StatusFailed
				results[i].Error = fmt.Sprintf("not run: %v", err)
			}
		}
	}

	sum := &Summary{Jobs: results, Elapsed: time.Since(start)}
	for i := range results {
		switch results[i].Status {
		case StatusOK:
			sum.OK++
			if results[i].CacheHit {
				sum.CacheHits++
			}
		default:
			sum.Failed++
		}
	}
	if grid != nil {
		grid.End(sum.OK, sum.Failed, sum.CacheHits, time.Now())
	}
	if e.opts.Progress != nil {
		e.opts.Progress.finish(sum)
	}
	return sum, ctx.Err()
}

// executeJob runs one unique job: cache probe, then bounded attempts with
// panic isolation and an optional per-attempt timeout.  When observability
// is on, the job's lifecycle is recorded as a contiguous span chain
// (queue-wait, cache-lookup, prepare, run, store-write) plus lifecycle
// events; copies is how many specs deduplicated onto this execution, so
// the observer's counters reconcile with the manifest totals.
func (e *Engine) executeJob(ctx context.Context, spec JobSpec, hash string, grid *obs.Grid, worker, copies int) (res JobResult) {
	res = JobResult{Spec: spec, Hash: hash}
	var jo *obs.JobObs
	if grid != nil {
		jo = grid.StartJob(worker, spec.Name(), hash, copies, time.Now())
		defer func() {
			jo.Done(res.Status, res.CacheHit, res.Attempts, res.Elapsed, time.Now())
		}()
		ctx = context.WithValue(ctx, spanCtxKey{}, jo)
	}

	if e.opts.Store != nil {
		rec, err := e.opts.Store.Get(hash)
		if jo != nil {
			jo.Mark(obs.PhaseCacheLookup, time.Now())
		}
		if err == nil && rec != nil {
			res.Status = StatusOK
			res.CacheHit = true
			res.Report = rec.Report
			return res
		}
	}

	start := time.Now()
	attempts := 1 + e.opts.Retries
	var lastErr error
	for a := 1; a <= attempts; a++ {
		res.Attempts = a
		rep, err := e.attempt(ctx, spec)
		if err == nil {
			if jo != nil {
				jo.Mark(obs.PhaseRun, time.Now())
			}
			res.Status = StatusOK
			res.Report = rep
			res.Elapsed = time.Since(start).Milliseconds()
			if e.opts.Store != nil {
				canon, cerr := spec.Canonical()
				if cerr != nil {
					canon = spec
				}
				perr := e.opts.Store.Put(&Record{Hash: hash, Spec: canon, Report: rep})
				if perr != nil {
					// A write failure degrades the cache, not the sweep.
					res.Error = fmt.Sprintf("cache write failed: %v", perr)
				}
				if jo != nil {
					jo.StoreWrite(perr == nil, time.Now())
				}
			}
			return res
		}
		lastErr = err
		if jo != nil {
			var pe *panicError
			if errors.As(err, &pe) {
				jo.Panic(a, err, time.Now())
			}
			if a < attempts && ctx.Err() == nil {
				jo.Retry(a, err, time.Now())
			}
		}
		if ctx.Err() != nil {
			// The sweep itself is over; don't burn retries on it.
			break
		}
	}
	if jo != nil {
		// Close the final failed attempt's run span.
		jo.Mark(obs.PhaseRun, time.Now())
	}
	res.Status = StatusFailed
	res.Error = lastErr.Error()
	res.Elapsed = time.Since(start).Milliseconds()
	return res
}

// panicError marks an attempt that died by panic rather than by returning
// an error, so the observer can distinguish a panic (its own counter and
// event) from an ordinary failure.  Error renders the same "panic: ..."
// message the engine always produced.
type panicError struct {
	val   any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", p.val, p.stack)
}

// attempt is one isolated execution: its own timeout, and a panic in the
// simulator surfaces as this job's error instead of killing the sweep.
func (e *Engine) attempt(ctx context.Context, spec JobSpec) (rep *telemetry.Report, err error) {
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	return e.opts.Runner(ctx, spec)
}

// Reports unwraps a fully-successful summary into its reports, in spec
// order.  Any failed job is an error carrying the first failure — the
// convenience path for callers (the experiment harness) that treat a
// failed point as a broken build rather than a measurement.
func (s *Summary) Reports() ([]*telemetry.Report, error) {
	reps := make([]*telemetry.Report, len(s.Jobs))
	for i := range s.Jobs {
		if s.Jobs[i].Status != StatusOK {
			return nil, fmt.Errorf("sweep: job %s failed: %s", s.Jobs[i].Spec.Name(), s.Jobs[i].Error)
		}
		reps[i] = s.Jobs[i].Report
	}
	return reps, nil
}

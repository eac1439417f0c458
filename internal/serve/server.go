package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// maxSubmitBytes bounds a submit request body.
const maxSubmitBytes = 16 << 20

// maxShippedChains / maxShippedPhases bound the worker span chains the
// daemon ingests per completed job (a chain per engine attempt is normal;
// anything past these limits is silently truncated).
const (
	maxShippedChains = 16
	maxShippedPhases = 256
)

// Config assembles a Server.
type Config struct {
	// Store is the shared content-addressed result cache (required).
	Store sweep.Store
	// Obs is the daemon observer (required; share its registry with the
	// engine's SweepObs for a single /metrics page).
	Obs *obs.ServeObs
	// Engine executes jobs locally; nil runs a fleet-only daemon (every
	// job waits for a remote worker).
	Engine *sweep.Engine
	// EngineObs, when set, nests the engine's live progress in /progress.
	EngineObs *obs.SweepObs

	// LeaseTTL bounds fleet-lease heartbeat gaps (default 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease grants per job (default 3).
	MaxAttempts int
	// BatchMax bounds the local dispatcher's batch size (default 8).
	BatchMax int
	// BatchLinger is how long the dispatcher waits after the first queued
	// job for more to coalesce into one engine.Run (default 25ms).
	BatchLinger time.Duration

	// ManifestDir, when set, receives one dsre-sweep-manifest/v1 file per
	// sweep at drain time (<dir>/<sweep-id>.json).
	ManifestDir string

	// Sink, when set, receives the per-request http_request/slow_request
	// events (share the daemon's JSONL sink with Obs).
	Sink obs.EventSink
	// SlowRequest is the latency threshold past which a request emits a
	// dedicated slow_request event (0 disables).
	SlowRequest time.Duration
	// TraceSeed seeds the trace/span ID minter (0 derives it from the
	// clock at New; tests pin it for reproducible IDs).
	TraceSeed uint64

	// Now is the clock (tests inject; nil means time.Now).
	Now func() time.Time
}

// Server is the dsre-serve daemon core: queue, local dispatcher,
// lease janitor and the dsre-serve/v1 HTTP surface.  Build with New, wire
// Handler into an http.Server, call Start, and Drain on shutdown.
type Server struct {
	cfg       Config
	q         *Queue
	mux       *http.ServeMux
	red       *tracing.RED
	startTime time.Time

	draining  atomic.Bool
	drainCh   chan struct{} // closed when drain begins: dispatcher stops leasing
	stopCh    chan struct{} // closed when the janitor should exit
	drainOnce sync.Once
	abandoned int

	runCtx     context.Context // local engine runs; hard-cancelled at the drain deadline
	hardCancel context.CancelFunc

	dispatchDone chan struct{}
	janitorDone  chan struct{}
	started      atomic.Bool
}

// New validates the config and builds the daemon core (Start launches its
// goroutines).
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: config needs a Store")
	}
	if cfg.Obs == nil {
		return nil, fmt.Errorf("serve: config needs an Obs")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 8
	}
	if cfg.BatchLinger < 0 {
		cfg.BatchLinger = 0
	} else if cfg.BatchLinger == 0 {
		cfg.BatchLinger = 25 * time.Millisecond
	}
	seed := cfg.TraceSeed
	if seed == 0 {
		seed = uint64(cfg.Now().UnixNano())
	}
	minter := tracing.NewMinter(seed)
	s := &Server{
		cfg:          cfg,
		q:            NewQueue(cfg.Obs, cfg.LeaseTTL, cfg.MaxAttempts, minter),
		red:          tracing.NewRED(cfg.Obs.Reg, cfg.Sink, minter, cfg.Now, cfg.SlowRequest),
		startTime:    cfg.Now(),
		drainCh:      make(chan struct{}),
		stopCh:       make(chan struct{}),
		dispatchDone: make(chan struct{}),
		janitorDone:  make(chan struct{}),
	}
	s.runCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	return s, nil
}

// Queue exposes the job table (tests and the drain path).
func (s *Server) Queue() *Queue { return s.q }

func (s *Server) now() time.Time { return s.cfg.Now() }

// Start launches the lease janitor and (when an engine is configured) the
// local batch dispatcher.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.janitor()
	if s.cfg.Engine != nil {
		go s.dispatch()
	} else {
		close(s.dispatchDone)
	}
}

// janitor expires fleet leases whose heartbeats stopped.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	period := s.q.leaseTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.q.ExpireLeases(s.now(), false)
		case <-s.stopCh:
			return
		}
	}
}

// dispatch is the local execution loop: wait for queued work, linger
// briefly so bursts coalesce, lease a batch under non-expiring leases and
// run it through the engine.  On drain it finishes the batch in flight,
// releases anything the engine abandoned, and exits.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		if !s.waitWork() {
			return
		}
		if s.cfg.BatchLinger > 0 {
			t := time.NewTimer(s.cfg.BatchLinger)
			select {
			case <-t.C:
			case <-s.drainCh:
				t.Stop()
				return
			}
		}
		batch := s.q.LeaseBatch("local", s.cfg.BatchMax, true, s.now())
		if len(batch) == 0 {
			continue
		}
		specs := make([]sweep.JobSpec, len(batch))
		for i := range batch {
			specs[i] = batch[i].Spec
		}
		sum, _ := s.cfg.Engine.Run(s.runCtx, specs)
		for i := range sum.Jobs {
			r := sum.Jobs[i]
			if r.Status == sweep.StatusFailed && s.runCtx.Err() != nil && strings.HasPrefix(r.Error, "not run:") {
				// The drain deadline cancelled the run before this job
				// started; put it back uncharged.
				s.q.Release(batch[i].Lease, s.now())
				continue
			}
			s.q.Complete(batch[i].Lease, "local", batch[i].Hash, r, false, s.now())
		}
	}
}

// waitWork blocks until the queue has leasable work; false means drain.
func (s *Server) waitWork() bool {
	for {
		if s.draining.Load() {
			return false
		}
		if s.q.QueuedLen() > 0 {
			return true
		}
		select {
		case <-s.q.Wake():
		case <-s.drainCh:
			return false
		}
	}
}

// Drain gracefully shuts the daemon down: refuse new submits and leases,
// let in-flight work finish (local batch and outstanding fleet leases) up
// to timeout, force-expire whatever remains, flush every sweep's manifest
// and emit the structured drain event.  It returns how many queued jobs
// were abandoned.  Idempotent; later calls return the first result.
func (s *Server) Drain(reason string, timeout time.Duration) int {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		deadline := time.Now().Add(timeout)

		// Local batch in flight: give it the full window, then cancel hard.
		select {
		case <-s.dispatchDone:
		case <-time.After(time.Until(deadline)):
			s.hardCancel()
			<-s.dispatchDone
		}

		// Outstanding fleet leases: wait for uploads, then force-expire.
		//lint:ctxcheck — bounded by the drain deadline in the loop condition, so it cannot outlive the drain window
		for s.q.FleetLeases() > 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		s.q.ExpireLeases(s.now(), true)

		close(s.stopCh)
		<-s.janitorDone

		s.abandoned = s.q.QueuedLen()
		s.flushManifests()
		s.cfg.Obs.Drain(reason, s.abandoned, s.now())
	})
	return s.abandoned
}

// flushManifests writes one manifest per sweep into ManifestDir.
func (s *Server) flushManifests() {
	if s.cfg.ManifestDir == "" {
		return
	}
	if err := os.MkdirAll(s.cfg.ManifestDir, 0o755); err != nil {
		return
	}
	for _, id := range s.q.SweepIDs() {
		m, _, ok := s.q.Manifest(id)
		if !ok {
			continue
		}
		_ = m.WriteFile(filepath.Join(s.cfg.ManifestDir, id+".json"))
	}
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// routes wires the HTTP surface.  Every /v1 route and /progress runs
// under the RED middleware (request counters, latency histograms, trace
// propagation, request logs); /metrics, /healthz, /debug/pprof and the
// index stay bare so scrapes and probes never perturb the request
// metrics they report.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	wrap := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.red.Wrap(pattern, h))
	}
	wrap("POST /v1/sweeps", s.handleSubmit)
	wrap("GET /v1/sweeps", s.handleSweepList)
	wrap("GET /v1/sweeps/{id}", s.handleSweep)
	wrap("GET /v1/sweeps/{id}/manifest", s.handleManifest)
	wrap("GET /v1/sweeps/{id}/trace", s.handleTrace)
	wrap("GET /v1/artifacts/{hash}", s.handleArtifactGet)
	wrap("PUT /v1/artifacts/{hash}", s.handleArtifactPut)
	wrap("GET /v1/artifacts/{hash}/report", s.handleReport)
	wrap("GET /v1/artifacts/{hash}/explain", s.handleExplain)
	wrap("POST /v1/fleet/lease", s.handleLease)
	wrap("POST /v1/fleet/heartbeat", s.handleHeartbeat)
	wrap("POST /v1/fleet/complete", s.handleComplete)
	wrap("GET /progress", s.handleProgress)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders the dsre-serve-error/v1 envelope, stamping the
// request's trace ID so a client-side error report can be matched to the
// daemon's request logs.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	var trace string
	if tc, ok := tracing.FromContext(r.Context()); ok {
		trace = tc.Trace.String()
	}
	writeJSON(w, status, ErrorResponse{
		Schema: ErrorSchema, Code: code, Message: fmt.Sprintf(format, args...), Trace: trace,
	})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	if err := dec.Decode(v); err != nil {
		writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, r, http.StatusServiceUnavailable, ErrCodeDraining, "daemon is draining")
		return
	}
	tenant := r.Header.Get("X-DSRE-Tenant")
	if tenant == "" {
		tenant = "anonymous"
	}
	var req SubmitRequest
	if !decodeJSON(w, r, maxSubmitBytes, &req) {
		return
	}
	var specs []sweep.JobSpec
	if req.Grid != nil {
		expanded, err := req.Grid.Expand()
		if err != nil && len(req.Specs) == 0 {
			writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
			return
		}
		specs = append(specs, expanded...)
	}
	specs = append(specs, req.Specs...)
	if len(specs) == 0 {
		writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "submit names no specs")
		return
	}
	now := s.now()

	// Canonicalise, validate and hash outside the queue lock; probe the
	// store so repeat grids resolve to instant hits without queueing.
	hashes := make([]string, len(specs))
	hits := map[string]bool{}
	for i, spec := range specs {
		h, err := spec.Hash()
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "spec %d (%s): %v", i, spec.Name(), err)
			return
		}
		if canon, cerr := spec.Canonical(); cerr == nil {
			specs[i] = canon
		}
		hashes[i] = h
		if _, seen := hits[h]; !seen {
			rec, gerr := s.cfg.Store.Get(h)
			hits[h] = gerr == nil && rec != nil
		}
	}

	// The sweep adopts the submit request's trace so the daemon's request
	// log, the sweep document and every job span share one trace ID.
	var trace tracing.TraceID
	if tc, ok := tracing.FromContext(r.Context()); ok {
		trace = tc.Trace
	}
	id := s.q.Submit(tenant, specs, hashes, hits, trace, now)
	v, _ := s.q.View(id, true)
	writeJSON(w, http.StatusCreated, v)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	list := SweepListView{Schema: SweepSchema}
	for _, id := range s.q.SweepIDs() {
		if v, ok := s.q.View(id, false); ok {
			list.Sweeps = append(list.Sweeps, v)
		}
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	v, ok := s.q.View(r.PathValue("id"), true)
	if !ok {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, finished, ok := s.q.Manifest(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no sweep %q", id)
		return
	}
	if !finished {
		writeError(w, r, http.StatusConflict, ErrCodeConflict, "sweep %s is still running", id)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleTrace serves the stitched multi-process Chrome trace for one
// sweep: daemon-side lease lanes plus every worker-side span chain that
// shares the sweep's trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	trace, ok := s.q.Trace(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no sweep %q", id)
		return
	}
	spans := s.cfg.Obs.Spans()
	if spans == nil {
		writeError(w, r, http.StatusConflict, ErrCodeConflict, "span collection is disabled on this daemon")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = tracing.WriteStitched(w, trace.String(), spans.Jobs())
}

func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, err := s.cfg.Store.Get(hash)
	if err != nil || rec == nil {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no artifact %s", hash)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var rec sweep.Record
	if !decodeJSON(w, r, maxRecordBytes, &rec) {
		return
	}
	if code, ecode, msg := s.checkRecord(&rec, hash); code != 0 {
		writeError(w, r, code, ecode, "%s", msg)
		return
	}
	if err := s.cfg.Store.Put(&rec); err != nil {
		writeError(w, r, http.StatusInternalServerError, ErrCodeInternal, "store put: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"stored": true})
}

// checkRecord verifies an uploaded record's addressing, version keying and
// payload integrity.  Returns (0, "", "") when acceptable; otherwise the
// HTTP status, the error envelope code and the message.
func (s *Server) checkRecord(rec *sweep.Record, hash string) (int, string, string) {
	if rec.Report == nil {
		return http.StatusBadRequest, ErrCodeBadRequest, "record has no report payload"
	}
	if rec.Hash != hash {
		return http.StatusBadRequest, ErrCodeBadRequest, fmt.Sprintf("record hash %s does not match address %s", rec.Hash, hash)
	}
	if rec.SimVersion != "" && rec.SimVersion != sim.Version {
		return http.StatusConflict, ErrCodeVersionSkew, fmt.Sprintf("record sim version %q, daemon runs %q (version-skewed worker)", rec.SimVersion, sim.Version)
	}
	if err := rec.VerifyPayload(); err != nil {
		return http.StatusBadRequest, ErrCodeBadRequest, fmt.Sprintf("payload verification failed: %v", err)
	}
	return 0, "", ""
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, err := s.cfg.Store.Get(hash)
	if err != nil || rec == nil {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no artifact %s", hash)
		return
	}
	writeJSON(w, http.StatusOK, rec.Report)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, err := s.cfg.Store.Get(hash)
	if err != nil || rec == nil {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no artifact %s", hash)
		return
	}
	top := 10
	if t := r.URL.Query().Get("top"); t != "" {
		if n, err := strconv.Atoi(t); err == nil {
			top = n
		}
	}
	doc := explain.Doc{
		Schema: explain.Schema,
		Runs:   []explain.RunView{explain.View(rec.Spec.Name(), rec.Report, top)},
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, r, 1<<20, &req) {
		return
	}
	if req.Worker == "" {
		writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "lease request names no worker")
		return
	}
	if s.draining.Load() {
		w.Header().Set("X-DSRE-Draining", "1")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	lj, ok := s.q.Lease(req.Worker, false, s.now())
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	// The grant carries the job's trace context both in the body and as a
	// traceparent header so the worker can thread it through its own spans.
	tracing.Context{Trace: lj.Trace, Span: lj.Span}.SetHeader(w.Header())
	writeJSON(w, http.StatusOK, LeaseResponse{
		Schema: LeaseSchema, Lease: lj.Lease, Hash: lj.Hash, Name: lj.Name,
		Trace: lj.Trace.String(), Span: lj.Span.String(),
		Attempt: lj.Attempt, TTLMS: s.q.leaseTTL.Milliseconds(), Spec: lj.Spec,
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeJSON(w, r, 1<<20, &req) {
		return
	}
	ttl, err := s.q.Heartbeat(req.Lease, s.now())
	if err != nil {
		writeError(w, r, http.StatusGone, ErrCodeLeaseGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Schema: LeaseSchema, TTLMS: ttl.Milliseconds()})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, r, maxRecordBytes, &req) {
		return
	}
	if req.Hash == "" {
		writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "complete names no job hash")
		return
	}
	res := sweep.JobResult{
		Hash: req.Hash, Status: req.Status,
		Elapsed: req.ElapsedMS, Error: req.Error,
	}
	if req.Status == sweep.StatusOK {
		if req.Record == nil {
			writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "ok completion carries no record")
			return
		}
		if code, ecode, msg := s.checkRecord(req.Record, req.Hash); code != 0 {
			writeError(w, r, code, ecode, "%s", msg)
			return
		}
		// Persist before acknowledging: once the worker hears "accepted",
		// the payload must be durable.  First write wins in the store, so a
		// racing duplicate is dropped there and again in the queue.
		if err := s.cfg.Store.Put(req.Record); err != nil {
			writeError(w, r, http.StatusInternalServerError, ErrCodeInternal, "store put: %v", err)
			return
		}
		res.Report = req.Record.Report
	} else if req.Status != sweep.StatusFailed {
		writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "status %q is neither %q nor %q", req.Status, sweep.StatusOK, sweep.StatusFailed)
		return
	}
	accepted, duplicate, state, err := s.q.Complete(req.Lease, req.Worker, req.Hash, res, true, s.now())
	if err != nil {
		writeError(w, r, http.StatusNotFound, ErrCodeLeaseGone, "%v", err)
		return
	}
	// Ingest the worker's shipped span chains once the upload is accepted,
	// with the origin pinned to the authenticated-by-lease worker ID (never
	// trust the chain's own Origin field).  Bounded so a misbehaving worker
	// cannot balloon the daemon's span log.
	if len(req.Spans) > 0 {
		chains := req.Spans
		if len(chains) > maxShippedChains {
			chains = chains[:maxShippedChains]
		}
		for i := range chains {
			chains[i].Origin = req.Worker
			if len(chains[i].Phases) > maxShippedPhases {
				chains[i].Phases = chains[i].Phases[:maxShippedPhases]
			}
		}
		s.cfg.Obs.WorkerSpans(chains)
	}
	writeJSON(w, http.StatusOK, CompleteResponse{
		Schema: CompleteSchema, Accepted: accepted, Duplicate: duplicate, State: state.String(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.cfg.Obs.Reg.WritePrometheus(w)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	now := s.now()
	v := s.cfg.Obs.Progress(now)
	if s.cfg.EngineObs != nil {
		ev := s.cfg.EngineObs.Progress(now)
		v.Engine = &ev
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	now := s.now()
	writeJSON(w, http.StatusOK, HealthView{
		Schema: HealthSchema, Status: status,
		SimVersion: sim.Version, GoVersion: runtime.Version(),
		StartTimeMS: s.startTime.UnixMilli(),
		UptimeMS:    now.Sub(s.startTime).Milliseconds(),
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "dsre-serve/v1 endpoints:")
	fmt.Fprintln(w, "  POST /v1/sweeps                     submit a grid (X-DSRE-Tenant header)")
	fmt.Fprintln(w, "  GET  /v1/sweeps                     list sweeps")
	fmt.Fprintln(w, "  GET  /v1/sweeps/{id}                sweep status (dsre-serve-sweep/v1)")
	fmt.Fprintln(w, "  GET  /v1/sweeps/{id}/manifest       manifest once finished (409 before)")
	fmt.Fprintln(w, "  GET  /v1/sweeps/{id}/trace          stitched cross-process Chrome trace")
	fmt.Fprintln(w, "  GET  /v1/artifacts/{hash}           cached result record")
	fmt.Fprintln(w, "  PUT  /v1/artifacts/{hash}           upload a sealed record")
	fmt.Fprintln(w, "  GET  /v1/artifacts/{hash}/report    dsre-report/v1 payload")
	fmt.Fprintln(w, "  GET  /v1/artifacts/{hash}/explain   dsre-explain/v1 view")
	fmt.Fprintln(w, "  POST /v1/fleet/lease|heartbeat|complete   worker protocol")
	fmt.Fprintln(w, "  GET  /metrics /progress /healthz /debug/pprof")
}

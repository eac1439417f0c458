package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/obs/status"
	"repro/internal/obs/tracing"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// maxSubmitBytes bounds a submit request body.
const maxSubmitBytes = 16 << 20

// batchMax bounds how many queued jobs the dispatcher hands to one
// engine Run.
const batchMax = 8

// Config assembles a Server.
type Config struct {
	// Store is the shared content-addressed result cache (required): the
	// submit-time probe and the artifact endpoints read it, and Engine
	// must write to it.
	Store sweep.Store
	// Engine runs every job (required).
	Engine *sweep.Engine
	// Obs is Engine's observer (required).  Its registry also carries the
	// daemon's submit and RED metrics, its Progress is /progress, and its
	// span log, when on, backs GET /v1/sweeps/{id}/trace.
	Obs *obs.SweepObs

	// BatchLinger is how long the dispatcher waits after the first queued
	// job for more to coalesce into one engine Run (0 means 25ms, negative
	// means no wait).
	BatchLinger time.Duration

	// ManifestDir, when set, receives one dsre-sweep-manifest/v1 file per
	// sweep at drain time (<dir>/<sweep-id>.json).
	ManifestDir string

	// Sink, when set, receives the daemon's submit, serve_drain and
	// per-request http_request/slow_request events (share the daemon's
	// JSONL sink with Obs).
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

// Server is the dsre-serve daemon core: the job table, the dispatcher
// that feeds it to the engine, and the dsre-serve/v1 HTTP surface.  New
// starts the dispatcher; wire Handler into an http.Server and call Drain
// on shutdown.
type Server struct {
	cfg       Config
	jobs      *jobTable
	mux       *http.ServeMux
	red       *tracing.RED
	startTime time.Time

	mSubmits, mSubmitSpecs *obs.Counter

	draining  atomic.Bool
	drainCh   chan struct{} // closed when drain begins: the dispatcher stops taking jobs
	drainOnce sync.Once
	abandoned int

	runCtx     context.Context // engine runs; hard-cancelled at the drain deadline
	hardCancel context.CancelFunc

	dispatchDone chan struct{}
}

// New validates the config, builds the daemon core and starts its
// dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil || cfg.Engine == nil || cfg.Obs == nil {
		return nil, fmt.Errorf("serve: config needs a Store, an Engine and the engine's Obs")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.BatchLinger == 0 {
		cfg.BatchLinger = 25 * time.Millisecond
	}
	seed := cfg.TraceSeed
	if seed == 0 {
		seed = uint64(cfg.Now().UnixNano())
	}
	minter := tracing.NewMinter(seed)
	reg := cfg.Obs.Reg
	s := &Server{
		cfg:          cfg,
		jobs:         newJobTable(reg.Gauge("dsre_serve_sweeps_open", "Submitted sweeps not yet finished.")),
		red:          tracing.NewRED(reg, cfg.Sink, minter, cfg.Now, cfg.SlowRequest),
		startTime:    cfg.Now(),
		mSubmits:     reg.Counter("dsre_serve_submits_total", "Sweep grids submitted to the daemon."),
		mSubmitSpecs: reg.Counter("dsre_serve_submit_specs_total", "Job specs submitted (before dedup)."),
		drainCh:      make(chan struct{}),
		dispatchDone: make(chan struct{}),
	}
	s.runCtx, s.hardCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	go s.dispatch()
	return s, nil
}

func (s *Server) now() time.Time { return s.cfg.Now() }

func (s *Server) emit(e obs.Event) {
	if s.cfg.Sink != nil {
		e.TimeMS = s.now().UnixMilli()
		s.cfg.Sink.Emit(e)
	}
}

// dispatch is the execution loop: wait for queued work, linger briefly so
// bursts coalesce, take a batch and run it through the engine, then record
// each result.  On drain it finishes the batch in flight and exits.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for s.waitWork() {
		if s.cfg.BatchLinger > 0 {
			t := time.NewTimer(s.cfg.BatchLinger)
			select {
			case <-t.C:
			case <-s.drainCh:
				t.Stop()
				return
			}
		}
		batch := s.jobs.take(batchMax)
		specs := make([]sweep.JobSpec, len(batch))
		for i, j := range batch {
			specs[i] = j.spec
		}
		sum, _ := s.cfg.Engine.Run(s.runCtx, specs)
		for i, j := range batch {
			s.jobs.finish(j, sum.Jobs[i])
		}
	}
}

// waitWork blocks until a job is queued; false means drain.
func (s *Server) waitWork() bool {
	for {
		if s.draining.Load() {
			return false
		}
		if s.jobs.queued() > 0 {
			return true
		}
		select {
		case <-s.jobs.wake:
		case <-s.drainCh:
			return false
		}
	}
}

// Drain gracefully shuts the daemon down: refuse new submits, let the
// engine batch in flight finish up to timeout and then cancel it, flush
// every sweep's manifest and emit the serve_drain event.  It returns how
// many jobs were abandoned: queued jobs that never started, including
// those the cancel stopped before they started.  Idempotent; later calls
// return the first result.
func (s *Server) Drain(reason string, timeout time.Duration) int {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
		t := time.NewTimer(timeout)
		select {
		case <-s.dispatchDone:
		case <-t.C:
			s.hardCancel()
			<-s.dispatchDone
		}
		t.Stop()
		s.hardCancel()

		s.abandoned = s.jobs.queued()
		s.flushManifests()
		s.emit(obs.Event{Kind: obs.EventServeDrain, Error: reason, Total: s.abandoned})
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
	for _, id := range s.jobs.sweepIDs() {
		m, _, ok := s.jobs.manifest(id)
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
// metrics they report.  /metrics, /progress and /debug/pprof are the
// status package's handlers, as dsre-sweep -status serves them.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	wrap := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.red.Wrap(pattern, h))
	}
	st := status.Handler(status.Options{
		Registry: s.cfg.Obs.Reg,
		Progress: func() obs.ProgressView { return s.cfg.Obs.Progress(s.now()) },
		Start:    s.startTime,
	})
	wrap("POST /v1/sweeps", s.handleSubmit)
	wrap("GET /v1/sweeps", s.handleSweepList)
	wrap("GET /v1/sweeps/{id}", s.handleSweep)
	wrap("GET /v1/sweeps/{id}/manifest", s.handleManifest)
	wrap("GET /v1/sweeps/{id}/trace", s.handleTrace)
	wrap("GET /v1/artifacts/{hash}", s.handleArtifactGet)
	wrap("PUT /v1/artifacts/{hash}", s.handleArtifactPut)
	wrap("GET /v1/artifacts/{hash}/report", s.handleReport)
	wrap("GET /v1/artifacts/{hash}/explain", s.handleExplain)
	wrap("GET /progress", st.ServeHTTP)
	mux.Handle("GET /metrics", st)
	mux.Handle("GET /debug/pprof/", st)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

// writeError renders the dsre-serve-error/v1 envelope, stamping the
// request's trace ID so a client-side error report can be matched to the
// daemon's request logs.
func writeError(w http.ResponseWriter, r *http.Request, httpCode int, code, format string, args ...any) {
	var trace string
	if tc, ok := tracing.FromContext(r.Context()); ok {
		trace = tc.Trace.String()
	}
	status.WriteJSON(w, httpCode, ErrorResponse{
		Schema: ErrorSchema, Code: code, Message: fmt.Sprintf(format, args...), Trace: trace,
	})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields() // a retired spec field must not run as a different point
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
	// Canonicalise, validate and hash outside the table lock; probe the
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

	// The sweep adopts the submit request's trace (the RED middleware
	// minted one if the caller sent none), so the daemon's request log and
	// the sweep document share one trace ID.
	tc, _ := tracing.FromContext(r.Context())
	v := s.jobs.submit(tenant, specs, hashes, hits, tc.Trace)
	s.mSubmits.Inc()
	s.mSubmitSpecs.Add(int64(len(specs)))
	s.emit(obs.Event{Kind: obs.EventSubmit, Sweep: v.Sweep, Tenant: tenant, Trace: v.Trace,
		Total: v.Total, Unique: v.Unique, CacheHits: v.CacheHits})
	status.WriteJSON(w, http.StatusCreated, v)
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	list := SweepListView{Schema: SweepSchema}
	for _, id := range s.jobs.sweepIDs() {
		if v, ok := s.jobs.view(id, false); ok {
			list.Sweeps = append(list.Sweeps, v)
		}
	}
	status.WriteJSON(w, http.StatusOK, list)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.view(r.PathValue("id"), true)
	if !ok {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no sweep %q", r.PathValue("id"))
		return
	}
	status.WriteJSON(w, http.StatusOK, v)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, finished, ok := s.jobs.manifest(id)
	if !ok {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no sweep %q", id)
		return
	}
	if !finished {
		writeError(w, r, http.StatusConflict, ErrCodeConflict, "sweep %s is still running", id)
		return
	}
	status.WriteJSON(w, http.StatusOK, m)
}

// handleTrace serves one sweep's Chrome trace: the engine's span chain for
// every job of the sweep that reached the engine, with the sweep's trace
// ID in the metadata.  A job two sweeps share appears in both.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	trace, hashes, ok := s.jobs.trace(id)
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
	_ = spans.WriteChromeTraceFor(w, trace.String(), hashes)
}

func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, err := s.cfg.Store.Get(hash)
	if err != nil || rec == nil {
		writeError(w, r, http.StatusNotFound, ErrCodeNotFound, "no artifact %s", hash)
		return
	}
	status.WriteJSON(w, http.StatusOK, rec)
}

func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !sweep.ValidHash(hash) {
		writeError(w, r, http.StatusBadRequest, ErrCodeBadRequest, "malformed artifact hash %q", hash)
		return
	}
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
	status.WriteJSON(w, http.StatusOK, map[string]bool{"stored": true})
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
		return http.StatusConflict, ErrCodeVersionSkew, fmt.Sprintf("record sim version %q, daemon runs %q (version-skewed writer)", rec.SimVersion, sim.Version)
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
	status.WriteJSON(w, http.StatusOK, rec.Report)
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
	status.WriteJSON(w, http.StatusOK, doc)
}

// handleHealthz is the daemon's own /healthz: status's document, reading
// "draining" once Drain has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	status.WriteJSON(w, http.StatusOK, status.Health(state, s.startTime, s.now()))
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "dsre-serve/v1 endpoints:")
	fmt.Fprintln(w, "  POST /v1/sweeps                     submit a grid (X-DSRE-Tenant header)")
	fmt.Fprintln(w, "  GET  /v1/sweeps                     list sweeps")
	fmt.Fprintln(w, "  GET  /v1/sweeps/{id}                sweep status (dsre-serve-sweep/v2)")
	fmt.Fprintln(w, "  GET  /v1/sweeps/{id}/manifest       manifest once finished (409 before)")
	fmt.Fprintln(w, "  GET  /v1/sweeps/{id}/trace          the sweep's job spans as a Chrome trace")
	fmt.Fprintln(w, "  GET  /v1/artifacts/{hash}           cached result record")
	fmt.Fprintln(w, "  PUT  /v1/artifacts/{hash}           upload a sealed record")
	fmt.Fprintln(w, "  GET  /v1/artifacts/{hash}/report    dsre-report/v1 payload")
	fmt.Fprintln(w, "  GET  /v1/artifacts/{hash}/explain   dsre-explain/v1 view")
	fmt.Fprintln(w, "  GET  /metrics /progress (dsre-progress/v1) /healthz /debug/pprof")
}

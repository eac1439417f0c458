// Package serve turns the sweep engine into a long-running service: a
// daemon that accepts sweep grids over HTTP/JSON (dsre-serve/v1), executes
// them through a shared content-addressed result store, and optionally
// farms unique jobs out to a fleet of worker processes with lease-based
// work stealing.
//
// The daemon owns the queue of unique jobs (content-addressed by spec
// hash, so concurrent submissions of the same point dedup naturally), a
// local batch dispatcher feeding the in-process sweep.Engine, and the
// lease protocol remote workers speak: lease → heartbeat → complete, with
// heartbeat-expiry requeue and first-write-wins upload dedup.  Results
// land in a sweep.Store; RemoteStore re-exports that store to sweep CLIs
// over the same HTTP surface.
package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sweep"
)

// Wire-format schema stamps.  Every JSON document the daemon reads or
// writes is stamped so clients and validators can reject drift loudly.
const (
	// SubmitSchema identifies the POST /v1/sweeps request body.
	SubmitSchema = "dsre-serve-submit/v1"
	// SweepSchema identifies a sweep status document.
	SweepSchema = "dsre-serve-sweep/v1"
	// LeaseSchema identifies a fleet lease grant.
	LeaseSchema = "dsre-serve-lease/v1"
	// CompleteSchema identifies a fleet result upload.
	CompleteSchema = "dsre-serve-complete/v1"
	// ErrorSchema identifies an error response body.
	ErrorSchema = "dsre-serve-error/v1"
	// HealthSchema identifies the /healthz liveness document.
	HealthSchema = "dsre-serve-health/v1"
)

// JobState is the queue lifecycle of one unique job.
type JobState uint8

const (
	// JobQueued waits for a lease (local dispatcher or fleet worker).
	JobQueued JobState = iota
	// JobLeased is held by exactly one worker under a live lease.
	JobLeased
	// JobDone holds a successful result (its payload lives in the store).
	JobDone
	// JobFailed exhausted its attempts (or every copy was abandoned).
	JobFailed
)

// String returns the state's wire spelling.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobLeased:
		return "leased"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return fmt.Sprintf("JobState(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// MarshalJSON writes the state as its wire spelling.
func (s JobState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// SubmitRequest is the POST /v1/sweeps body: a declarative grid, explicit
// specs, or both (the grid expands first, specs append after).
type SubmitRequest struct {
	Schema string          `json:"schema"`
	Grid   *sweep.Grid     `json:"grid,omitempty"`
	Specs  []sweep.JobSpec `json:"specs,omitempty"`
}

// JobView is one spec's live state inside a sweep document, in submission
// order.  CacheHit marks copies satisfied without a fresh execution: store
// replays and dedup copies of an executed point.
type JobView struct {
	Hash     string `json:"hash"`
	Name     string `json:"name"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SweepView is the dsre-serve-sweep/v1 status document for one submitted
// sweep.
type SweepView struct {
	Schema   string `json:"schema"`
	Sweep    string `json:"sweep"`
	Tenant   string `json:"tenant"`
	Trace    string `json:"trace,omitempty"` // the sweep's 32-hex trace ID
	Finished bool   `json:"finished"`

	Total     int `json:"total"`      // submitted spec copies
	Unique    int `json:"unique"`     // unique jobs newly enqueued by this submit
	Done      int `json:"done"`       // copies completed ok
	Failed    int `json:"failed"`     // copies failed terminally
	CacheHits int `json:"cache_hits"` // copies satisfied without a fresh execution

	Jobs []JobView `json:"jobs,omitempty"`
}

// SweepListView is the GET /v1/sweeps document.
type SweepListView struct {
	Schema string      `json:"schema"`
	Sweeps []SweepView `json:"sweeps"`
}

// LeaseRequest is the POST /v1/fleet/lease body.
type LeaseRequest struct {
	Schema string `json:"schema"`
	Worker string `json:"worker"`
}

// LeaseResponse grants one job to a worker.  The worker must heartbeat
// before TTLMS elapses or the lease expires and the job requeues.  Trace
// is the enqueueing sweep's trace ID and Span the attempt's span ID (hex);
// the worker stamps both onto the span chains it ships back.
type LeaseResponse struct {
	Schema  string        `json:"schema"`
	Lease   string        `json:"lease"`
	Hash    string        `json:"hash"`
	Name    string        `json:"name"`
	Trace   string        `json:"trace,omitempty"`
	Span    string        `json:"span,omitempty"`
	Attempt int           `json:"attempt"`
	TTLMS   int64         `json:"ttl_ms"`
	Spec    sweep.JobSpec `json:"spec"`
}

// HeartbeatRequest is the POST /v1/fleet/heartbeat body.
type HeartbeatRequest struct {
	Schema string `json:"schema"`
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// HeartbeatResponse extends a live lease.
type HeartbeatResponse struct {
	Schema string `json:"schema"`
	TTLMS  int64  `json:"ttl_ms"`
}

// CompleteRequest is the POST /v1/fleet/complete body: the outcome of one
// leased job.  A successful run carries the sealed result record; the
// daemon verifies its payload hash and version stamps before accepting.
type CompleteRequest struct {
	Schema string `json:"schema"`
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Hash   string `json:"hash"`

	Status    string `json:"status"` // sweep.StatusOK or sweep.StatusFailed
	Error     string `json:"error,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`

	Record *sweep.Record `json:"record,omitempty"`

	// Spans are the worker-side span chains for this job (queue-wait,
	// prepare, run attempts, store upload), stamped with the lease's
	// propagated trace/span IDs.  They travel beside the sealed record —
	// never inside it, which would change the content address — and the
	// daemon stitches them into the sweep's multi-process trace.
	Spans []obs.JobSpans `json:"spans,omitempty"`
}

// CompleteResponse reports what an upload did to the job.  Duplicate means
// first-write-wins dedup dropped the payload (another writer finished
// first); State is the job's state after the upload.
type CompleteResponse struct {
	Schema    string `json:"schema"`
	Accepted  bool   `json:"accepted"`
	Duplicate bool   `json:"duplicate"`
	State     string `json:"state"`
}

// ErrorResponse is every non-2xx JSON body: a stable machine-readable
// code, a human message, and the request's trace ID so a client error
// report can be matched to the daemon's request logs.
type ErrorResponse struct {
	Schema  string `json:"schema"`
	Code    string `json:"code"`
	Message string `json:"message"`
	Trace   string `json:"trace,omitempty"`
}

// Error codes carried by ErrorResponse.Code.
const (
	ErrCodeBadRequest  = "bad_request"
	ErrCodeNotFound    = "not_found"
	ErrCodeDraining    = "draining"
	ErrCodeConflict    = "conflict"
	ErrCodeLeaseGone   = "lease_gone"
	ErrCodeVersionSkew = "version_skew"
	ErrCodeInternal    = "internal"
)

// HealthView is the dsre-serve-health/v1 document served at /healthz:
// liveness plus the version identity fleet operators use to spot skewed
// workers.
type HealthView struct {
	Schema      string `json:"schema"`
	Status      string `json:"status"` // "ok" or "draining"
	SimVersion  string `json:"sim_version"`
	GoVersion   string `json:"go_version"`
	StartTimeMS int64  `json:"start_time_ms"` // unix milliseconds
	UptimeMS    int64  `json:"uptime_ms"`
}

// Package serve puts the sweep engine behind HTTP: a daemon that accepts
// sweep grids over HTTP/JSON (dsre-serve/v1) and runs them on one
// in-process sweep.Engine against a shared content-addressed result
// store.
//
// The engine is the job lifecycle (execution, retries, store writes,
// metrics, events and spans).  The daemon keeps only what the engine
// cannot do across Run calls: a table of unique jobs keyed by spec hash,
// so concurrent and repeated submissions of one point share one
// execution; the submit-time store probe; the fan-out of each result to
// every sweep that asked for it; and the per-sweep views and manifests.
// RemoteStore re-exports the store to sweep CLIs over the same HTTP
// surface.
package serve

import (
	"fmt"

	"repro/internal/sweep"
)

// Wire-format schema stamps.  Every JSON document the daemon reads or
// writes is stamped so clients and validators can reject drift loudly.
const (
	// SubmitSchema identifies the POST /v1/sweeps request body.
	SubmitSchema = "dsre-serve-submit/v1"
	// SweepSchema identifies a sweep status document.
	SweepSchema = "dsre-serve-sweep/v2"
	// ErrorSchema identifies an error response body.
	ErrorSchema = "dsre-serve-error/v1"
)

// JobState is the daemon-side lifecycle of one unique job.
type JobState uint8

const (
	// JobQueued waits for the dispatcher.
	JobQueued JobState = iota
	// JobRunning is in an engine Run.
	JobRunning
	// JobDone holds a successful result (its payload lives in the store).
	JobDone
	// JobFailed holds the engine's failed result, after its retries.
	JobFailed
)

// String returns the state's wire spelling.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
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

// SubmitRequest is the POST /v1/sweeps body: a declarative grid, explicit
// specs, or both (the grid expands first, specs append after).
type SubmitRequest struct {
	Schema string          `json:"schema"`
	Grid   *sweep.Grid     `json:"grid,omitempty"`
	Specs  []sweep.JobSpec `json:"specs,omitempty"`
}

// JobView is one spec's live state inside a sweep document, in submission
// order.  CacheHit marks copies satisfied without a fresh execution: store
// replays and dedup copies of an executed point.  Attempts is the engine's
// attempt count once the job has a result.
type JobView struct {
	Hash     string `json:"hash"`
	Name     string `json:"name"`
	State    string `json:"state"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SweepView is the dsre-serve-sweep/v2 status document for one submitted
// sweep.
type SweepView struct {
	Schema   string `json:"schema"`
	Sweep    string `json:"sweep"`
	Tenant   string `json:"tenant"`
	Trace    string `json:"trace,omitempty"` // the sweep's 32-hex trace ID
	Finished bool   `json:"finished"`

	Total     int `json:"total"`      // submitted spec copies
	Unique    int `json:"unique"`     // unique jobs newly queued by this submit
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
	ErrCodeVersionSkew = "version_skew"
	ErrCodeInternal    = "internal"
)

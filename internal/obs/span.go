package obs

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/telemetry"
)

// Phase names one segment of a job's lifecycle.  The engine records the
// phases of every job as a contiguous chain of spans: each phase starts
// exactly where the previous one ended, so per-job span totals telescope
// to wall time by construction (pinned by the engine's span test).
type Phase uint8

const (
	// PhaseQueueWait runs from sweep feed start to worker pickup.
	PhaseQueueWait Phase = iota
	// PhaseCacheLookup covers the content-addressed store probe.
	PhaseCacheLookup
	// PhasePrepare covers the memoized workload build + golden run (the
	// default runner only; custom runners fold it into PhaseRun).
	PhasePrepare
	// PhaseRun covers one simulation attempt (one span per attempt).
	PhaseRun
	// PhaseStoreWrite covers writing the result object to the store.
	PhaseStoreWrite
)

// String returns the phase's wire spelling.
func (p Phase) String() string {
	switch p {
	case PhaseQueueWait:
		return "queue-wait"
	case PhaseCacheLookup:
		return "cache-lookup"
	case PhasePrepare:
		return "prepare"
	case PhaseRun:
		return "run"
	case PhaseStoreWrite:
		return "store-write"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// MarshalJSON writes the phase as its wire spelling.
func (p Phase) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// PhaseSpan is one recorded phase; offsets are nanoseconds relative to the
// observer's start instant.
type PhaseSpan struct {
	Phase   Phase `json:"phase"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// JobSpans is the complete lifecycle of one unique job.
type JobSpans struct {
	Name     string      `json:"name"`
	Hash     string      `json:"hash,omitempty"`
	Grid     string      `json:"grid,omitempty"`
	Worker   int         `json:"worker"`
	Status   string      `json:"status,omitempty"`
	CacheHit bool        `json:"cache_hit,omitempty"`
	Phases   []PhaseSpan `json:"phases"`
}

// SpanLog collects job lifecycles for export.  Appends are mutex-guarded;
// jobs are kept in completion order, which is deterministic enough for the
// trace viewer (each worker's lane is internally ordered by time).
type SpanLog struct {
	mu   sync.Mutex
	jobs []JobSpans
}

// NewSpanLog returns an empty log.
func NewSpanLog() *SpanLog {
	return &SpanLog{}
}

// Add appends one finished job.
func (l *SpanLog) Add(j JobSpans) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs = append(l.jobs, j)
}

// Jobs returns a copy of the recorded lifecycles.
func (l *SpanLog) Jobs() []JobSpans {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]JobSpans(nil), l.jobs...)
}

// WriteChromeTrace renders the log as catapult JSON on one process lane
// ("sweep") with one thread lane per worker, reusing the telemetry
// trace-event writer.  Each job renders as an enclosing span with its
// phases nested inside; nanosecond offsets map onto trace microseconds.
func (l *SpanLog) WriteChromeTrace(w io.Writer) error {
	jobs := l.Jobs()
	b := telemetry.NewTraceBuilder()
	b.SetMeta("source", "dsre-sweep")
	b.SetMeta("time_unit", "wall microseconds")
	b.Process(0, "sweep")

	maxWorker := -1
	for i := range jobs {
		if jobs[i].Worker > maxWorker {
			maxWorker = jobs[i].Worker
		}
	}
	for wkr := 0; wkr <= maxWorker; wkr++ {
		b.Thread(0, wkr, fmt.Sprintf("worker %d", wkr))
	}

	for i := range jobs {
		j := &jobs[i]
		if len(j.Phases) == 0 {
			continue
		}
		start := j.Phases[0].StartNS
		end := j.Phases[len(j.Phases)-1].EndNS
		b.Span(0, j.Worker, j.Name, "job", start/1000, (end-start)/1000, map[string]any{
			"hash": j.Hash, "grid": j.Grid, "status": j.Status, "cache_hit": j.CacheHit,
		})
		for _, ph := range j.Phases {
			b.Span(0, j.Worker, ph.Phase.String(), "phase",
				ph.StartNS/1000, (ph.EndNS-ph.StartNS)/1000, nil)
		}
	}
	return b.Write(w)
}

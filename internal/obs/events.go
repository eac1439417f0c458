package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventsSchema identifies the structured event-log wire format: one JSON
// object per line, every line stamped with this schema so concatenated or
// truncated logs stay self-describing.
const EventsSchema = "dsre-events/v4"

// EventKind classifies one job-lifecycle event.
type EventKind uint8

const (
	// EventSweepStart opens one engine Run (one grid).
	EventSweepStart EventKind = iota
	// EventJobStart marks a worker picking up one unique job.
	EventJobStart
	// EventJobDone closes a job: status, attempts, elapsed, copies covered.
	EventJobDone
	// EventCacheHit records spec-level cache hits: store replays and
	// in-sweep dedup copies.  Copies carries how many specs it covers.
	EventCacheHit
	// EventRetry records a failed attempt that will be retried.
	EventRetry
	// EventPanic records an attempt that panicked (isolated to its job).
	EventPanic
	// EventStoreWrite records a result written to (or refused by) the
	// content-addressed store.
	EventStoreWrite
	// EventDrain records a cancelled sweep draining: in-flight jobs finish,
	// queued jobs are abandoned.
	EventDrain
	// EventSweepDone closes one engine Run with its totals.
	EventSweepDone
	// EventStoreCorrupt records a cached record rejected by payload SHA-256
	// verification (read as a miss and recomputed).
	EventStoreCorrupt
)

// String returns the wire spelling of the kind.
func (k EventKind) String() string {
	switch k {
	case EventSweepStart:
		return "sweep_start"
	case EventJobStart:
		return "job_start"
	case EventJobDone:
		return "job_done"
	case EventCacheHit:
		return "cache_hit"
	case EventRetry:
		return "retry"
	case EventPanic:
		return "panic"
	case EventStoreWrite:
		return "store_write"
	case EventDrain:
		return "drain"
	case EventSweepDone:
		return "sweep_done"
	case EventStoreCorrupt:
		return "store_corrupt"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// EventKinds lists every declared kind, in declaration order (the schema
// round-trip test and the CI validator enumerate it).
func EventKinds() []EventKind {
	return []EventKind{
		EventSweepStart, EventJobStart, EventJobDone, EventCacheHit, EventRetry,
		EventPanic, EventStoreWrite, EventDrain, EventSweepDone,
		EventStoreCorrupt,
	}
}

// ParseEventKind inverts String for the declared kinds.
func ParseEventKind(s string) (EventKind, error) {
	for _, k := range EventKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalJSON writes the kind as its wire spelling.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON rejects unknown kinds, so log validation catches schema
// drift instead of silently zeroing it.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseEventKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// Event is one dsre-events/v4 record.  Seq is assigned by the sink and is
// strictly monotonic within one log; TimeMS is the emitting caller's
// wall clock (unix milliseconds) — the sink never reads a clock itself, so
// this package stays deterministic.
type Event struct {
	Schema string    `json:"schema"`
	Seq    int64     `json:"seq"`
	TimeMS int64     `json:"t_ms,omitempty"`
	Kind   EventKind `json:"kind"`

	Grid   string `json:"grid,omitempty"`
	Job    string `json:"job,omitempty"`  // spec hash (content address)
	Name   string `json:"name,omitempty"` // workload/scheme
	Worker int    `json:"worker,omitempty"`

	Attempt   int    `json:"attempt,omitempty"`
	Status    string `json:"status,omitempty"`
	CacheHit  bool   `json:"cache_hit,omitempty"`
	Copies    int    `json:"copies,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`

	// Sweep-level totals (sweep_start carries Total/Unique/Workers,
	// sweep_done the final fold).
	Total     int `json:"total,omitempty"`
	Unique    int `json:"unique,omitempty"`
	Workers   int `json:"workers,omitempty"`
	OK        int `json:"ok,omitempty"`
	Failed    int `json:"failed,omitempty"`
	CacheHits int `json:"cache_hits,omitempty"`
}

// EventSink receives lifecycle events.  Implementations must be safe for
// concurrent use: the sweep engine emits from every worker.
type EventSink interface {
	Emit(Event)
}

// JSONLSink writes events as JSON lines, assigning contiguous sequence
// numbers starting at 1.  Writes are serialised under a mutex so lines
// never interleave; the first write error is sticky and reported by Err
// (an observability failure must degrade the log, never the sweep).
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	err error
}

// NewJSONLSink wraps a writer (the caller owns closing it).
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: w}
}

// Emit stamps schema and sequence number and writes one line.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.seq++
	e.Seq = s.seq
	e.Schema = EventsSchema
	data, err := json.Marshal(&e)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		s.err = err
	}
}

// Err returns the first write or encode error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadEvents parses a dsre-events/v4 JSONL stream, enforcing the schema
// stamp on every line, known kinds, and strictly increasing sequence
// numbers.  Blank lines are skipped.
func ReadEvents(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var events []Event
	lastSeq := int64(0)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			return nil, fmt.Errorf("obs: events line %d: %w", line, err)
		}
		if e.Schema != EventsSchema {
			return nil, fmt.Errorf("obs: events line %d: schema %q, want %q", line, e.Schema, EventsSchema)
		}
		if e.Seq <= lastSeq {
			return nil, fmt.Errorf("obs: events line %d: seq %d not after %d", line, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: events scan: %w", err)
	}
	return events, nil
}

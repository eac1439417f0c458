package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestEventKindRoundTrip pins that every declared kind survives
// String -> Parse and JSON marshal -> unmarshal unchanged, and that the
// wire spellings are unique.
func TestEventKindRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range EventKinds() {
		s := k.String()
		if strings.Contains(s, "EventKind(") {
			t.Fatalf("kind %d has no wire spelling", k)
		}
		if seen[s] {
			t.Fatalf("duplicate wire spelling %q", s)
		}
		seen[s] = true

		parsed, err := ParseEventKind(s)
		if err != nil || parsed != k {
			t.Errorf("ParseEventKind(%q) = %v, %v; want %v", s, parsed, err, k)
		}
		data, err := k.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back EventKind
		if err := back.UnmarshalJSON(data); err != nil || back != k {
			t.Errorf("json round trip %v -> %s -> %v, err %v", k, data, back, err)
		}
	}
	if _, err := ParseEventKind("no_such_kind"); err == nil {
		t.Error("ParseEventKind accepted an unknown kind")
	}
	var k EventKind
	if err := k.UnmarshalJSON([]byte(`"no_such_kind"`)); err == nil {
		t.Error("UnmarshalJSON accepted an unknown kind")
	}
}

// TestJSONLSinkRoundTrip writes a representative event stream through the
// sink and reads it back through the validating reader: schema stamped on
// every line, contiguous seq from 1, all fields preserved.
func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	in := []Event{
		{Kind: EventSweepStart, Grid: "grid-1", Total: 4, Unique: 3, Workers: 2},
		{Kind: EventJobStart, Grid: "grid-1", Job: "abc123", Name: "deps-w4", Worker: 1, Copies: 2},
		{Kind: EventRetry, Grid: "grid-1", Job: "abc123", Attempt: 1, Error: "timeout"},
		{Kind: EventPanic, Grid: "grid-1", Job: "abc123", Attempt: 2, Error: "panic: boom"},
		{Kind: EventStoreWrite, Grid: "grid-1", Job: "abc123"},
		{Kind: EventCacheHit, Grid: "grid-1", Job: "abc123", Copies: 1},
		{Kind: EventJobDone, Grid: "grid-1", Job: "abc123", Status: "ok", Copies: 2, ElapsedMS: 12, TimeMS: 99},
		{Kind: EventDrain, Grid: "grid-1", Error: "context canceled"},
		{Kind: EventSweepDone, Grid: "grid-1", OK: 3, Failed: 1, CacheHits: 1, ElapsedMS: 40},
	}
	for _, e := range in {
		sink.Emit(e)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	out, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i, e := range out {
		if e.Schema != EventsSchema {
			t.Errorf("event %d schema = %q", i, e.Schema)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, e.Seq, i+1)
		}
		want := in[i]
		want.Schema = EventsSchema
		want.Seq = int64(i + 1)
		if e != want {
			t.Errorf("event %d = %+v, want %+v", i, e, want)
		}
	}
}

// TestJSONLSinkConcurrent pins that concurrent emitters never interleave
// lines or skip sequence numbers.
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf lockedBuffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sink.Emit(Event{Kind: EventJobDone, Worker: w, Status: "ok"})
			}
		}(w)
	}
	wg.Wait()
	events, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(events) != workers*per {
		t.Fatalf("read %d events, want %d", len(events), workers*per)
	}
	if last := events[len(events)-1].Seq; last != int64(workers*per) {
		t.Errorf("final seq = %d, want %d", last, workers*per)
	}
}

func TestReadEventsRejectsMalformedStreams(t *testing.T) {
	cases := map[string]string{
		"bad schema":  `{"schema":"nope/v1","seq":1,"kind":"job_done"}`,
		"bad kind":    `{"schema":"dsre-events/v4","seq":1,"kind":"bogus"}`,
		"zero seq":    `{"schema":"dsre-events/v4","seq":0,"kind":"job_done"}`,
		"seq reorder": "{\"schema\":\"dsre-events/v4\",\"seq\":2,\"kind\":\"job_done\"}\n{\"schema\":\"dsre-events/v4\",\"seq\":1,\"kind\":\"job_done\"}",
		"not json":    `{`,
	}
	for name, in := range cases {
		if _, err := ReadEvents(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadEvents accepted the stream", name)
		}
	}
}

// lockedBuffer lets ReadEvents' writer side be driven from many goroutines
// in tests; the sink already serialises, but -race needs the buffer itself
// to be safe for the final read too.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

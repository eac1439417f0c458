// Package tracing is dsre-serve's zero-dependency trace layer: a
// W3C-traceparent-style context (128-bit trace ID, 64-bit span ID)
// propagated on every HTTP hop of the daemon (and on RemoteStore's cache
// traffic), a deterministic ID minter, and HTTP RED instrumentation for
// the daemon's endpoints.
//
// Like internal/obs, the package is audited by dsre-lint's determinism
// analyzer: it never reads a clock (the RED middleware takes an injected
// Now), never spawns goroutines, and mints IDs by hashing a caller-seeded
// counter instead of reading entropy, so tests can pin exact trace IDs.
package tracing

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
)

// Header is the propagation header, following the W3C trace-context
// spelling: "00-<32 hex trace id>-<16 hex span id>-01".
const Header = "traceparent"

// TraceID identifies one request tree (one submitted sweep): 128 bits.
type TraceID [16]byte

// SpanID identifies one unit of work inside a trace (one HTTP request):
// 64 bits.
type SpanID [8]byte

// IsZero reports an unset trace ID (all-zero is invalid per spec).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String returns the 32-char lowercase hex spelling.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports an unset span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String returns the 16-char lowercase hex spelling.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses a 32-char hex trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 2*len(t) {
		return TraceID{}, fmt.Errorf("tracing: trace id %q: want %d hex chars", s, 2*len(t))
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("tracing: trace id %q: %v", s, err)
	}
	return t, nil
}

// ParseSpanID parses a 16-char hex span ID.
func ParseSpanID(s string) (SpanID, error) {
	var sp SpanID
	if len(s) != 2*len(sp) {
		return SpanID{}, fmt.Errorf("tracing: span id %q: want %d hex chars", s, 2*len(sp))
	}
	if _, err := hex.Decode(sp[:], []byte(s)); err != nil {
		return SpanID{}, fmt.Errorf("tracing: span id %q: %v", s, err)
	}
	return sp, nil
}

// Context is one hop's trace coordinates.
type Context struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both IDs are set.
func (c Context) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// String renders the traceparent header value.
func (c Context) String() string {
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-01"
}

// Parse inverts String.  Any version byte is accepted (forward
// compatibility, as the spec requires); trailing fields beyond the flags
// are ignored.
func Parse(s string) (Context, error) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return Context{}, fmt.Errorf("tracing: malformed traceparent %q", s)
	}
	if len(s) > 55 && s[55] != '-' {
		return Context{}, fmt.Errorf("tracing: malformed traceparent %q", s)
	}
	trace, err := ParseTraceID(s[3:35])
	if err != nil {
		return Context{}, err
	}
	span, err := ParseSpanID(s[36:52])
	if err != nil {
		return Context{}, err
	}
	c := Context{Trace: trace, Span: span}
	if !c.Valid() {
		return Context{}, fmt.Errorf("tracing: traceparent %q has zero ids", s)
	}
	return c, nil
}

// FromHeader extracts a valid context from an HTTP header set.
func FromHeader(h http.Header) (Context, bool) {
	v := h.Get(Header)
	if v == "" {
		return Context{}, false
	}
	c, err := Parse(v)
	if err != nil {
		return Context{}, false
	}
	return c, true
}

// SetHeader stamps the context onto an HTTP header set.
func (c Context) SetHeader(h http.Header) {
	h.Set(Header, c.String())
}

type ctxKey struct{}

// WithContext attaches a trace context to a request context.
func WithContext(ctx context.Context, c Context) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext recovers the trace context the RED middleware attached.
func FromContext(ctx context.Context) (Context, bool) {
	c, ok := ctx.Value(ctxKey{}).(Context)
	return c, ok
}

// Minter mints trace and span IDs by hashing a caller-provided seed with a
// strictly increasing sequence: no clock, no entropy pool, so the audited
// packages stay deterministic and tests seeded identically mint identical
// IDs.  Distinct processes pass distinct seeds (the daemon uses its start
// instant) so their IDs do not collide.
type Minter struct {
	seed [32]byte
	seq  atomic.Uint64
}

// NewMinter builds a minter over a seed.
func NewMinter(seed uint64) *Minter {
	m := &Minter{}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seed)
	m.seed = sha256.Sum256(b[:])
	return m
}

func (m *Minter) next(kind byte) [32]byte {
	var buf [41]byte
	copy(buf[:32], m.seed[:])
	buf[32] = kind
	binary.BigEndian.PutUint64(buf[33:], m.seq.Add(1))
	return sha256.Sum256(buf[:])
}

// NextTrace mints a fresh non-zero trace ID.
func (m *Minter) NextTrace() TraceID {
	var t TraceID
	h := m.next('t')
	copy(t[:], h[:])
	return t
}

// NextSpan mints a fresh non-zero span ID.
func (m *Minter) NextSpan() SpanID {
	var s SpanID
	h := m.next('s')
	copy(s[:], h[:])
	return s
}

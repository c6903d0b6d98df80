package obs

import (
	"encoding/hex"
	"fmt"
	"math/rand/v2"
)

// TraceHeader is the wire header carrying a span's identity between
// processes, W3C traceparent-style: 00-<32 hex trace>-<16 hex span>-01.
// The record client injects it on every request leg and recordd echoes
// it on every response, so one trace ID follows a compile across every
// node it reaches.
const TraceHeader = "X-Record-Trace"

// TraceID identifies one distributed trace: 128 random bits shared by
// every span the trace contains, across every process it crosses.
type TraceID [16]byte

// IsZero reports the invalid all-zero trace ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace: 64 random bits.
type SpanID [8]byte

// IsZero reports the invalid all-zero span ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is a span's wire identity: which trace it belongs to and
// which span it is.  The zero value is invalid (no identity).
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context carries a usable identity.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Header renders the context in the X-Record-Trace wire format.
func (sc SpanContext) Header() string {
	return fmt.Sprintf("00-%s-%s-01", sc.Trace, sc.Span)
}

// ParseTraceHeader parses an X-Record-Trace value.  Unknown versions,
// wrong lengths, bad hex and all-zero IDs report ok=false — a garbage
// header can never fail a request, it only loses the trace linkage.
func ParseTraceHeader(v string) (sc SpanContext, ok bool) {
	// 2 (version) + 1 + 32 (trace) + 1 + 16 (span) + 1 + 2 (flags)
	if len(v) != 55 || v[:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(v[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(v[36:52])); err != nil {
		return SpanContext{}, false
	}
	return sc, sc.Valid()
}

// randIDs is the default tracer ID source: the process-global PRNG,
// seeded randomly at startup, so concurrent tracers across a fleet mint
// disjoint IDs without coordination.
func randIDs() uint64 { return rand.Uint64() }

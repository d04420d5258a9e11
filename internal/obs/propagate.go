package obs

import (
	"context"
	"net/http"
)

// Cross-process span propagation in the W3C Trace Context wire format:
//
//	traceparent: 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>
//
// The tracer's ids are 64-bit, so the injected trace id is the local id
// left-padded to 128 bits; extraction keeps the low 64 bits (falling
// back to the high half when an upstream sent a zero low half, which is
// legal W3C as long as the full id is nonzero). Sampling flags are
// carried but not interpreted — every process records into its own
// bounded ring regardless, so there is nothing to decide per-request.

// TraceParentHeader is the canonical (lowercase) propagation header.
const TraceParentHeader = "traceparent"

// SpanContext is the cross-process identity a traceparent header
// carries: which trace the caller is in, and which of its spans is the
// parent of whatever the callee does next.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether both ids are nonzero, the W3C invariant.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

// FormatTraceParent renders a version-00 traceparent value with the
// sampled flag set. Zero ids produce a header remote ends will reject,
// so callers should pass real span identities.
func FormatTraceParent(traceID, spanID uint64) string {
	return "00-0000000000000000" + formatID(traceID) + "-" + formatID(spanID) + "-01"
}

// ParseTraceParent decodes a traceparent header value. It is strict
// about shape — exact field widths, lowercase hex, known-invalid
// version ff and all-zero ids rejected — because a malformed header
// from an arbitrary client must degrade to "no trace context", never
// to a garbage trace id that aliases real traces.
func ParseTraceParent(h string) (SpanContext, bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	if _, ok := parseHex(h[:2]); !ok || h[:2] == "ff" {
		return SpanContext{}, false
	}
	hi, ok1 := parseHex(h[3:19])
	lo, ok2 := parseHex(h[19:35])
	sid, ok3 := parseHex(h[36:52])
	if _, ok := parseHex(h[53:55]); !ok || !ok1 || !ok2 || !ok3 {
		return SpanContext{}, false
	}
	tid := lo
	if tid == 0 {
		tid = hi
	}
	sc := SpanContext{TraceID: tid, SpanID: sid}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// parseHex decodes a lowercase hex string of at most 16 digits.
func parseHex(s string) (uint64, bool) {
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// remoteKey carries a SpanContext extracted from an incoming request.
type remoteKey struct{}

// ContextWithRemote returns a context under which StartSpan joins the
// given remote trace: the next span started without a local parent
// adopts sc.TraceID and parents under sc.SpanID.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteKey{}, sc)
}

// RemoteFromContext returns the extracted remote span context, if any.
func RemoteFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(remoteKey{}).(SpanContext)
	return sc, ok
}

// InjectHTTP stamps req with the context's trace identity: the active
// span if one is open, else a remote context being passed through
// verbatim (a proxy hop that doesn't span itself). With neither, the
// request is left untouched — no header, no allocation.
func InjectHTTP(ctx context.Context, req *http.Request) {
	if s := SpanFromContext(ctx); s != nil {
		req.Header.Set(TraceParentHeader, FormatTraceParent(s.traceID, s.spanID))
		return
	}
	if sc, ok := RemoteFromContext(ctx); ok && sc.Valid() {
		req.Header.Set(TraceParentHeader, FormatTraceParent(sc.TraceID, sc.SpanID))
	}
}

// ExtractHTTP returns ctx extended with the request's traceparent, so a
// subsequent StartSpan joins the caller's trace. A missing or malformed
// header returns ctx unchanged.
func ExtractHTTP(ctx context.Context, r *http.Request) context.Context {
	if sc, ok := ParseTraceParent(r.Header.Get(TraceParentHeader)); ok {
		return ContextWithRemote(ctx, sc)
	}
	return ctx
}

// Traced wraps h so that each request runs under a span named name on
// tracer, joined to the caller's trace when the request carries a
// traceparent header. A nil tracer leaves the span a no-op.
func Traced(tracer *Tracer, name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, span := StartSpan(ExtractHTTP(WithTracer(r.Context(), tracer), r), name)
		defer span.End()
		h(w, r.WithContext(ctx))
	}
}

// SpanFromHeader is server middleware for muxes without bespoke
// instrumentation: each request's context gains the caller's span
// context before h runs, so handlers that StartSpan land in the
// caller's trace automatically.
func SpanFromHeader(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(ExtractHTTP(r.Context(), r)))
	})
}

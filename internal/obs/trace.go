// Package obs is the observability layer of the watermarking stack:
// lightweight request tracing, structured-logging helpers on log/slog,
// and a Prometheus-style metrics registry with fixed-bucket histograms.
//
// Everything here is designed to cost nothing when switched off. A nil
// *Trace (the normal state when no caller asked for tracing) makes every
// span operation a nil-check and nothing else: StartSpan returns the
// context unchanged and a nil *Span whose methods are no-ops, so
// instrumented hot paths — the engine's detect fan-out, the oracle's
// recompute path — stay allocation-free unless a trace is attached.
//
// The trace model is deliberately small: a Trace is a process-local,
// mutex-guarded list of named spans with parent links, identified by a
// TraceID that travels between processes in the X-Lwm-Trace-Id header.
// There is no sampling, no export protocol, and no clock agreement
// across processes — the ID correlates client attempt logs with server
// request logs, and each process keeps its own span tree.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying the trace ID between the
// client (which generates it) and the daemon (which adopts it).
const TraceHeader = "X-Lwm-Trace-Id"

// TimingHeader is the HTTP response header on which the daemon reports
// its server-side stage timings back to a tracing client, as
// "queue_wait_ns=<int>;run_ns=<int>".
const TimingHeader = "X-Lwm-Server-Timing"

// TraceID identifies one logical request across processes.
type TraceID string

// traceSeq breaks ties if the random source ever repeats within a
// process; folded into every generated ID.
var traceSeq atomic.Uint64

// NewTraceID returns a process-unique trace ID: 8 random bytes plus a
// process-local sequence number, hex encoded.
func NewTraceID() TraceID {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Random source unavailable: the sequence number alone still
		// yields process-unique IDs.
		return TraceID(fmt.Sprintf("0000000000000000-%08x", traceSeq.Add(1)))
	}
	return TraceID(hex.EncodeToString(b[:]) + fmt.Sprintf("-%08x", traceSeq.Add(1)))
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one named, timed region of a Trace. Spans are created with
// Trace.StartSpan / StartSpan(ctx) and closed with Finish. A nil *Span
// is valid and inert: every method is a no-op.
type Span struct {
	Name  string
	Start time.Time

	tr     *Trace
	parent *Span

	// Guarded by tr.mu.
	end   time.Time
	attrs []Attr
}

// Finish marks the span's end time. Idempotent; safe on nil.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetAttr annotates the span. Safe on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
}

// Duration returns the span's elapsed time, or the time since Start for
// a span not yet finished. Zero on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.Start)
	}
	return s.end.Sub(s.Start)
}

// Trace collects the spans of one request. Safe for concurrent use:
// spans may be started, finished, and recorded from many goroutines
// (the engine's worker pool does exactly that).
type Trace struct {
	ID TraceID

	mu    sync.Mutex
	spans []*Span
}

// NewTrace starts an empty trace under the given ID.
func NewTrace(id TraceID) *Trace { return &Trace{ID: id} }

// StartSpan opens a child span of parent (nil parent: a root span).
// Returns nil if t is nil.
func (t *Trace) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Name: name, Start: time.Now(), tr: t, parent: parent}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Record adds an already-completed span — used when only (start,
// duration) of a region are known after the fact, like queue wait or an
// oracle recomputation. No-op on nil.
func (t *Trace) Record(parent *Span, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := &Span{Name: name, Start: start, tr: t, parent: parent, end: start.Add(d)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a snapshot of the trace's spans in creation order.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// SumPrefix returns the summed duration of the outermost spans whose
// name starts with prefix (nested prefix-matching spans are not double
// counted). Zero on nil.
func (t *Trace) SumPrefix(prefix string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if s.parent != nil && strings.HasPrefix(s.parent.Name, prefix) {
			continue // inner span of an already-counted region
		}
		end := s.end
		if end.IsZero() {
			end = time.Now()
		}
		sum += end.Sub(s.Start)
	}
	return sum
}

// WriteTree renders the span tree, children indented under parents and
// siblings in start order, with durations and attributes. A span still
// open when rendered shows "...". No output on nil.
func (t *Trace) WriteTree(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()

	fmt.Fprintf(w, "trace %s (%d spans)\n", t.ID, len(spans))
	children := make(map[*Span][]*Span)
	var roots []*Span
	for _, s := range spans {
		if s.parent == nil {
			roots = append(roots, s)
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byStart := func(l []*Span) {
		sort.SliceStable(l, func(i, j int) bool { return l[i].Start.Before(l[j].Start) })
	}
	byStart(roots)
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		t.mu.Lock()
		dur := "..."
		if !s.end.IsZero() {
			dur = s.end.Sub(s.Start).String()
		}
		attrs := ""
		for _, a := range s.attrs {
			attrs += fmt.Sprintf(" %s=%v", a.Key, a.Value)
		}
		t.mu.Unlock()
		fmt.Fprintf(w, "%s%-*s %10s%s\n", strings.Repeat("  ", depth+1),
			40-2*depth, s.Name, dur, attrs)
		kids := children[s]
		byStart(kids)
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// SpanView is an exported, JSON-serializable snapshot of one span and
// its children — the shape the flight recorder retains and /v1/traces
// serves. Durations are nanoseconds so the wire format needs no
// duration-string parsing on the client side.
type SpanView struct {
	Name          string     `json:"name"`
	StartUnixNano int64      `json:"start_unix_nano"`
	DurationNanos int64      `json:"duration_nanos"`
	Attrs         []AttrView `json:"attrs,omitempty"`
	Children      []SpanView `json:"children,omitempty"`
}

// AttrView is one span annotation in wire form; values are rendered to
// strings so the JSON schema stays stable regardless of attribute type.
type AttrView struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tree returns the trace's span forest as SpanViews: roots in start
// order, children nested under parents. Spans still open snapshot their
// duration as time-since-start. Nil on a nil trace.
func (t *Trace) Tree() []SpanView {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[*Span][]*Span)
	var roots []*Span
	for _, s := range t.spans {
		if s.parent == nil {
			roots = append(roots, s)
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byStart := func(l []*Span) {
		sort.SliceStable(l, func(i, j int) bool { return l[i].Start.Before(l[j].Start) })
	}
	var build func(s *Span) SpanView
	build = func(s *Span) SpanView {
		end := s.end
		if end.IsZero() {
			end = time.Now()
		}
		v := SpanView{
			Name:          s.Name,
			StartUnixNano: s.Start.UnixNano(),
			DurationNanos: int64(end.Sub(s.Start)),
		}
		for _, a := range s.attrs {
			v.Attrs = append(v.Attrs, AttrView{Key: a.Key, Value: fmt.Sprintf("%v", a.Value)})
		}
		kids := children[s]
		byStart(kids)
		for _, c := range kids {
			v.Children = append(v.Children, build(c))
		}
		return v
	}
	byStart(roots)
	views := make([]SpanView, 0, len(roots))
	for _, r := range roots {
		views = append(views, build(r))
	}
	return views
}

// ctxKey keys the trace state carried in a context: the trace and the
// current (innermost) span new child spans attach to.
type ctxKey struct{}

type ctxState struct {
	tr   *Trace
	span *Span
}

// WithTrace attaches tr to ctx as the active trace. A nil tr returns
// ctx unchanged.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &ctxState{tr: tr})
}

// TraceFrom returns the trace attached to ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if st, ok := ctx.Value(ctxKey{}).(*ctxState); ok {
		return st.tr
	}
	return nil
}

// CurrentSpan returns the innermost span attached to ctx, or nil.
func CurrentSpan(ctx context.Context) *Span {
	if st, ok := ctx.Value(ctxKey{}).(*ctxState); ok {
		return st.span
	}
	return nil
}

// StartSpan opens a child of ctx's current span on ctx's trace and
// returns a derived context carrying the new span. When no trace is
// attached it returns ctx unchanged and a nil span — the disabled path
// allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	st, ok := ctx.Value(ctxKey{}).(*ctxState)
	if !ok || st.tr == nil {
		return ctx, nil
	}
	s := st.tr.StartSpan(st.span, name)
	return context.WithValue(ctx, ctxKey{}, &ctxState{tr: st.tr, span: s}), s
}

// Enabled reports whether ctx carries a trace — instrumentation guards
// name-formatting work behind this to keep the disabled path free.
func Enabled(ctx context.Context) bool {
	return TraceFrom(ctx) != nil
}

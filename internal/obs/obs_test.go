package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceIsFree: the disabled path must be inert — nil spans accept
// every operation and StartSpan on an untraced context returns the same
// context (no allocation, no derived value).
func TestNilTraceIsFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if ctx2 != ctx {
		t.Fatal("StartSpan on an untraced context derived a new context")
	}
	if sp != nil {
		t.Fatal("StartSpan on an untraced context returned a span")
	}
	sp.Finish()
	sp.SetAttr("k", "v")
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	var tr *Trace
	if s := tr.StartSpan(nil, "x"); s != nil {
		t.Fatal("nil trace produced a span")
	}
	tr.Record(nil, "x", time.Now(), time.Second)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace has spans: %v", got)
	}
	tr.WriteTree(&bytes.Buffer{})
	if Enabled(ctx) {
		t.Fatal("Enabled on untraced context")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
	}
}

func TestSpanTreeAndContext(t *testing.T) {
	tr := NewTrace(NewTraceID())
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	ctx, root := StartSpan(ctx, "request")
	ctx2, child := StartSpan(ctx, "run")
	if CurrentSpan(ctx2) != child {
		t.Fatal("CurrentSpan is not the innermost span")
	}
	_, grand := StartSpan(ctx2, "engine.embed")
	grand.SetAttr("watermarks", 2)
	grand.Finish()
	child.Finish()
	tr.Record(root, "queue.wait", time.Now().Add(-time.Millisecond), time.Millisecond)
	root.Finish()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	var buf bytes.Buffer
	tr.WriteTree(&buf)
	out := buf.String()
	for _, want := range []string{"request", "run", "engine.embed", "queue.wait", "watermarks=2", string(tr.ID)} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	// engine.embed is nested under run: it must be indented deeper.
	lines := strings.Split(out, "\n")
	indent := func(name string) int {
		for _, l := range lines {
			if strings.Contains(l, name) {
				return len(l) - len(strings.TrimLeft(l, " "))
			}
		}
		t.Fatalf("no line for %q", name)
		return 0
	}
	if indent("engine.embed") <= indent("run ") {
		t.Errorf("engine.embed not nested under run:\n%s", out)
	}
}

// TestSumPrefix: nested engine spans must not double count.
func TestSumPrefix(t *testing.T) {
	tr := NewTrace("t")
	start := time.Now()
	outer := tr.StartSpan(nil, "engine.embed")
	tr.Record(outer, "engine.detect[0][0]", start, 5*time.Millisecond)
	tr.mu.Lock()
	outer.end = outer.Start.Add(10 * time.Millisecond)
	tr.mu.Unlock()
	tr.Record(nil, "other", start, time.Hour)
	if got := tr.SumPrefix("engine."); got != 10*time.Millisecond {
		t.Fatalf("SumPrefix = %v, want 10ms", got)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("race")
	root := tr.StartSpan(nil, "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := tr.StartSpan(root, "worker")
			s.SetAttr("n", 1)
			s.Finish()
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 17 {
		t.Fatalf("got %d spans, want 17", got)
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, d := range []time.Duration{
		5 * time.Millisecond, 50 * time.Millisecond, 50 * time.Millisecond,
		500 * time.Millisecond, 2 * time.Second,
	} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if want := 5*time.Millisecond + 100*time.Millisecond + 500*time.Millisecond + 2*time.Second; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	if q := h.Quantile(0.5); q != 0.1 {
		t.Errorf("p50 = %v, want 0.1 (bucket upper bound)", q)
	}
	if q := h.Quantile(0.99); q != 1 {
		t.Errorf("p99 = %v, want 1 (overflow reported at last finite bound)", q)
	}
	if q := NewHistogram(nil).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v", q)
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("lwm_test_total", "test counter", map[string]string{"endpoint": "embed", "result": "ok"})
	c.Add(3)
	r.Counter("lwm_test_total", "test counter", map[string]string{"endpoint": "embed", "result": "error"})
	r.GaugeFunc("lwm_test_depth", "test gauge", nil, func() float64 { return 2.5 })
	h := r.Histogram("lwm_test_seconds", "test histogram", []float64{0.1, 1}, map[string]string{"endpoint": "embed"})
	h.Observe(50 * time.Millisecond)
	h.Observe(5 * time.Second)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP lwm_test_total test counter",
		"# TYPE lwm_test_total counter",
		`lwm_test_total{endpoint="embed",result="ok"} 3`,
		`lwm_test_total{endpoint="embed",result="error"} 0`,
		"# TYPE lwm_test_depth gauge",
		"lwm_test_depth 2.5",
		"# TYPE lwm_test_seconds histogram",
		`lwm_test_seconds_bucket{endpoint="embed",le="0.1"} 1`,
		`lwm_test_seconds_bucket{endpoint="embed",le="1"} 1`,
		`lwm_test_seconds_bucket{endpoint="embed",le="+Inf"} 2`,
		`lwm_test_seconds_sum{endpoint="embed"} 5.05`,
		`lwm_test_seconds_count{endpoint="embed"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsTypeConflicts(t *testing.T) {
	r := NewRegistry()
	r.Counter("lwm_conflict", "h", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.GaugeFunc("lwm_conflict", "h", nil, func() float64 { return 0 })
}

func TestLoggerConstruction(t *testing.T) {
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("bad level accepted")
	}
	lv, err := ParseLevel("WARN")
	if err != nil || lv != slog.LevelWarn {
		t.Fatalf("ParseLevel(WARN) = %v, %v", lv, err)
	}
	if _, err := NewLogger(&bytes.Buffer{}, "xml", slog.LevelInfo); err == nil {
		t.Fatal("bad format accepted")
	}
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("request", "trace_id", "abc")
	if !strings.Contains(buf.String(), `"trace_id":"abc"`) {
		t.Fatalf("JSON log line malformed: %s", buf.String())
	}
	lg.Debug("hidden")
	if strings.Contains(buf.String(), "hidden") {
		t.Fatal("level filtering not applied")
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"localwm/internal/chaos"
	"localwm/internal/obs"
	"localwm/internal/obs/profiler"
	"localwm/internal/obs/recorder"
	"localwm/internal/tenant"
	"localwm/lwmapi"
)

// syncBuffer is a goroutine-safe log sink: the observe middleware may
// still be writing a request's log line after the client already has
// the response bytes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// requestLogLines parses every msg="request" JSON line from the sink.
func requestLogLines(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if m["msg"] == "request" {
			out = append(out, m)
		}
	}
	return out
}

// waitRequestLogs polls until n request log lines are present (the log
// line lands in a defer that may run after the client has the
// response).
func waitRequestLogs(t *testing.T, sink *syncBuffer, n int) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines := requestLogLines(t, sink.String())
		if len(lines) >= n {
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("want %d request log lines, have %d:\n%s", n, len(lines), sink.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func jsonLogger(sink *syncBuffer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(sink, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// TestTracePropagationAndRequestLog: a request carrying X-Lwm-Trace-Id
// gets the same ID echoed on the response and logged on its single
// request log line, with stage timings and result=ok.
func TestTracePropagationAndRequestLog(t *testing.T) {
	fx := makeFixture(t, "alice")
	sink := &syncBuffer{}
	srv := New(Config{Logger: jsonLogger(sink)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/embed", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "trace-test-1234")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "trace-test-1234" {
		t.Fatalf("trace header echoed %q, want trace-test-1234", got)
	}
	if timing := resp.Header.Get(obs.TimingHeader); !strings.Contains(timing, "queue_wait_ns=") ||
		!strings.Contains(timing, "run_ns=") {
		t.Fatalf("timing header %q missing stage fields", timing)
	}

	lines := waitRequestLogs(t, sink, 1)
	line := lines[0]
	if line["trace_id"] != "trace-test-1234" {
		t.Fatalf("log trace_id %v, want trace-test-1234", line["trace_id"])
	}
	if line["endpoint"] != "embed" || line["result"] != "ok" || line["status"] != float64(200) {
		t.Fatalf("log line fields off: %v", line)
	}
	if line["draining"] != false {
		t.Fatalf("draining %v on a serving instance", line["draining"])
	}
	for _, k := range []string{"queue_wait_ms", "run_ms", "total_ms", "engine_ms"} {
		if _, ok := line[k].(float64); !ok {
			t.Fatalf("log line missing numeric %s: %v", k, line)
		}
	}
}

// TestUntracedRequestsGetDistinctIDs: with logging on but no incoming
// header, every request is logged under a minted, unique trace ID.
func TestUntracedRequestsGetDistinctIDs(t *testing.T) {
	fx := makeFixture(t, "alice")
	sink := &syncBuffer{}
	srv := New(Config{Logger: jsonLogger(sink)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	for i := 0; i < 2; i++ {
		resp, _ := postJSON(t, http.DefaultClient, ts.URL+"/v1/embed", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("embed status %d", resp.StatusCode)
		}
		if resp.Header.Get(obs.TraceHeader) == "" {
			t.Fatal("no trace ID minted on response")
		}
	}
	lines := waitRequestLogs(t, sink, 2)
	a, b := lines[0]["trace_id"], lines[1]["trace_id"]
	if a == "" || b == "" || a == b {
		t.Fatalf("minted trace IDs not distinct: %v vs %v", a, b)
	}
}

// TestDrainObservability: during a drain, a rejected request's log line
// reports draining=true and result=drained with a 503; /v1/stats counts
// it as drained (not error); and /metrics reports lwmd_draining 1 plus
// the drained counter.
func TestDrainObservability(t *testing.T) {
	fx := makeFixture(t, "alice")
	sink := &syncBuffer{}
	srv := New(Config{Logger: jsonLogger(sink)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	body := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	resp, _ := postJSON(t, http.DefaultClient, ts.URL+"/v1/embed", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining embed status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}

	lines := waitRequestLogs(t, sink, 1)
	line := lines[0]
	if line["result"] != "drained" || line["draining"] != true || line["status"] != float64(503) {
		t.Fatalf("drain log line off: %v", line)
	}

	st := getStats(t, ts.URL)
	if v := st.value(t, "lwmd_requests_total", "endpoint=embed", "result=drained"); v != 1 {
		t.Fatalf("drained = %v, want 1", v)
	}
	if v := st.value(t, "lwmd_requests_total", "endpoint=embed", "result=error"); v != 0 {
		t.Fatalf("error = %v; drain rejections must not count as failures", v)
	}

	mresp, mbody := getMetrics(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"lwmd_draining 1",
		`lwmd_requests_total{endpoint="embed",result="drained"} 1`,
		`lwmd_requests_total{endpoint="embed",result="error"} 0`,
	} {
		if !strings.Contains(mbody, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, mbody)
		}
	}
}

// statsSeries is one series of a /v1/stats family: value for counters
// and gauges, count/sum/p50/p99 for histograms.
type statsSeries struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
	Count  uint64            `json:"count"`
	Sum    float64           `json:"sum"`
	P50    float64           `json:"p50"`
	P99    float64           `json:"p99"`
}

// stats is a decoded /v1/stats page: family name to series.
type stats map[string][]statsSeries

// getStats fetches and decodes GET /v1/stats from a service base URL.
func getStats(t *testing.T, base string) stats {
	t.Helper()
	resp, data := getMetrics(t, base+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d: %s", resp.StatusCode, data)
	}
	var st stats
	if err := json.Unmarshal([]byte(data), &st); err != nil {
		t.Fatalf("/v1/stats payload: %v: %s", err, data)
	}
	return st
}

// series returns the family's series whose label set is exactly the
// given "key=value" pairs, failing the test when there is none.
func (st stats) series(t *testing.T, family string, labels ...string) statsSeries {
	t.Helper()
	want := make(map[string]string, len(labels))
	for _, kv := range labels {
		k, v, _ := strings.Cut(kv, "=")
		want[k] = v
	}
	for _, s := range st[family] {
		if maps.Equal(s.Labels, want) {
			return s
		}
	}
	t.Fatalf("/v1/stats has no %s series %v: %v", family, labels, st[family])
	return statsSeries{}
}

// value is series(...).Value.
func (st stats) value(t *testing.T, family string, labels ...string) float64 {
	t.Helper()
	return st.series(t, family, labels...).Value
}

func getMetrics(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, buf.String()
}

// TestStatsAgreesWithMetrics: /v1/stats lists exactly the families and
// series of /metrics, with equal values (histograms: _count and _sum), on
// a server with every optional family on — recorder, profiler, chaos and
// tenants — after an embed, a detect, a put and a tenant-rate-limited
// put. The page is served with the Prometheus content type on both the
// service and debug muxes.
func TestStatsAgreesWithMetrics(t *testing.T) {
	fx := makeFixture(t, "alice")
	prof, err := profiler.New(profiler.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Close()
	reg, _ := loadTenants(t, tenant.File{Tenants: []tenant.Tenant{
		// Three tokens, refilled once every 1000s: the fourth request is
		// rate limited.
		{ID: "alice", APIKey: aliceKey, RatePerSec: 0.001, Burst: 3},
	}})
	rec := recorder.New(recorder.Config{Capacity: 16, SampleRate: 1})
	srv := New(Config{
		Recorder: rec,
		Profiler: prof,
		Chaos:    chaos.New(chaos.Config{Seed: 1}), // counts requests, injects nothing
		Tenants:  reg,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	dts := httptest.NewServer(srv.DebugHandler())
	defer dts.Close()

	embed := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	detect, _ := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	put := putDesignBody(t, fx.designText)
	for _, rq := range []struct {
		path string
		body []byte
		want int
	}{
		{"/v1/embed", embed, http.StatusOK},
		{"/v1/detect", detect, http.StatusOK},
		{"/v1/designs", put, http.StatusOK},
		{"/v1/designs", put, http.StatusTooManyRequests},
	} {
		resp, data := keyedReq(t, ts.Client(), http.MethodPost, ts.URL+rq.path, aliceKey, false, rq.body)
		if resp.StatusCode != rq.want {
			t.Fatalf("POST %s: status %d, want %d: %s", rq.path, resp.StatusCode, rq.want, data)
		}
	}
	// The recorder counts a request after its response is written.
	deadline := time.Now().Add(5 * time.Second)
	for rec.Counters().Recorded < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("recorder saw %d of 4 requests", rec.Counters().Recorded)
		}
		time.Sleep(time.Millisecond)
	}

	// Uptime and the runtime gauges move between any two reads.
	moving := func(family string) bool {
		return family == "lwmd_uptime_seconds" || strings.HasPrefix(family, "lwmd_go_")
	}
	// Process-wide counters may move under a straggling goroutine of an
	// earlier test, so compare against a /v1/stats read bracketed by two
	// identical /metrics reads.
	var (
		types map[string]string
		exp   map[string]float64
		st    stats
	)
	for attempt := 0; ; attempt++ {
		resp, page := getMetrics(t, ts.URL+"/metrics")
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("content type %q", ct)
		}
		types, exp = parseExposition(t, page, moving)
		st = getStats(t, ts.URL)
		_, page2 := getMetrics(t, ts.URL+"/metrics")
		if _, exp2 := parseExposition(t, page2, moving); maps.Equal(exp, exp2) {
			break
		}
		if attempt == 50 {
			t.Fatal("/metrics never held still across a /v1/stats read")
		}
	}

	for family := range types {
		if _, ok := st[family]; !ok {
			t.Errorf("/v1/stats lacks family %s", family)
		}
	}
	got := map[string]float64{}
	for family, list := range st {
		if _, ok := types[family]; !ok {
			t.Errorf("/v1/stats has family %s, /metrics does not", family)
		}
		if moving(family) {
			continue
		}
		for _, s := range list {
			if types[family] == "histogram" {
				got[seriesKey(family, s.Labels, "count")] = float64(s.Count)
				got[seriesKey(family, s.Labels, "sum")] = s.Sum
				continue
			}
			got[seriesKey(family, s.Labels, "")] = s.Value
		}
	}
	for k, v := range exp {
		if g, ok := got[k]; !ok {
			t.Errorf("/v1/stats lacks %s", k)
		} else if g != v {
			t.Errorf("%s: /metrics %v, /v1/stats %v", k, v, g)
		}
	}
	for k := range got {
		if _, ok := exp[k]; !ok {
			t.Errorf("/metrics lacks %s", k)
		}
	}

	// The drive reached every optional family.
	for _, c := range []struct {
		family string
		labels []string
		want   float64
	}{
		{"lwmd_requests_total", []string{"endpoint=embed", "result=ok"}, 1},
		{"lwmd_requests_total", []string{"endpoint=detect", "result=ok"}, 1},
		{"lwmd_requests_total", []string{"endpoint=designs", "result=ok"}, 1},
		{"lwmd_requests_total", []string{"endpoint=designs", "result=rejected"}, 1},
		{"lwmd_tenant_rate_limited_total", []string{"tenant=alice"}, 1},
		{"lwmd_tenant_requests_total", []string{"tenant=alice"}, 3},
		{"lwmd_chaos_requests_total", nil, 4},
		{"lwmd_trace_recorded_total", nil, 4},
		{"lwmd_prof_triggered_total", nil, 0},
	} {
		if v := st.value(t, c.family, c.labels...); v != c.want {
			t.Errorf("%s%v = %v, want %v", c.family, c.labels, v, c.want)
		}
	}
	if h := st.series(t, "lwmd_request_duration_seconds", "endpoint=embed"); h.Count != 1 || h.P50 <= 0 {
		t.Errorf("embed duration histogram %+v, want count 1 and a positive p50", h)
	}

	dresp, dpage := getMetrics(t, dts.URL+"/metrics")
	if ct := dresp.Header.Get("Content-Type"); dresp.StatusCode != http.StatusOK ||
		!strings.HasPrefix(ct, "text/plain; version=0.0.4") || !strings.Contains(dpage, "lwmd_request_duration_seconds") {
		t.Fatalf("debug mux /metrics not serving (status %d, content type %q)", dresp.StatusCode, ct)
	}
}

// parseExposition reads a text exposition page into the family types of
// its # TYPE lines and the values of its series, keyed by seriesKey;
// histograms contribute their _count and _sum, not their buckets.
// Families skip(family) reports are left out of the values.
func parseExposition(t *testing.T, page string, skip func(family string) bool) (map[string]string, map[string]float64) {
	t.Helper()
	types := map[string]string{}
	vals := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // exemplar
		}
		sp := strings.LastIndexByte(line, ' ')
		name, raw := line[:sp], line[sp+1:]
		labels := map[string]string{}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			rest := name[i+1 : len(name)-1]
			name = name[:i]
			for rest != "" {
				k, q, _ := strings.Cut(rest, "=")
				qv, err := strconv.QuotedPrefix(q)
				if err != nil {
					t.Fatalf("bad label value in %q: %v", line, err)
				}
				labels[k], _ = strconv.Unquote(qv)
				rest = strings.TrimPrefix(q[len(qv):], ",")
			}
		}
		field := ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
				name, field = base, suffix[1:]
			}
		}
		if field == "bucket" || skip(name) {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		vals[seriesKey(name, labels, field)] = v
	}
	return types, vals
}

// seriesKey names one compared value: family, labels and, for a
// histogram, "count" or "sum".
func seriesKey(family string, labels map[string]string, field string) string {
	return strings.TrimSpace(fmt.Sprintf("%s %v %s", family, labels, field))
}

// TestSLOTriggersDebouncedCapture: with an objective every request
// breaches, the first admitted request asks the profiler for a capture
// and a second inside the debounce window starts none; with an
// objective no request reaches, nothing is triggered.
func TestSLOTriggersDebouncedCapture(t *testing.T) {
	fx := makeFixture(t, "alice")
	body := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	for _, tc := range []struct {
		slo  time.Duration
		want []uint64 // Triggered after each request
	}{
		{time.Nanosecond, []uint64{1, 1}},
		{time.Hour, []uint64{0, 0}},
	} {
		prof, err := profiler.New(profiler.Config{
			Dir: t.TempDir(), CPUDuration: 5 * time.Millisecond, Debounce: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(prof.Close)
		srv := New(Config{SLO: tc.slo, Profiler: prof})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Shutdown(context.Background())
		})
		for i, want := range tc.want {
			if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/embed", body); resp.StatusCode != http.StatusOK {
				t.Fatalf("SLO %v request %d: status %d: %s", tc.slo, i, resp.StatusCode, data)
			}
			if got := prof.Counters().Triggered; got != want {
				t.Errorf("SLO %v after request %d: %d triggered captures, want %d", tc.slo, i, got, want)
			}
		}
	}
}

// TestChaosJSONRequestLogs: with the fault injector on and JSON logging,
// every request — including ones the chaos layer reset, 500ed, or
// truncated before the real handler ran — produces exactly one
// parseable request log line. The observe middleware sits outside the
// injector; this is the test that keeps it there.
func TestChaosJSONRequestLogs(t *testing.T) {
	fx := makeFixture(t, "alice")
	sink := &syncBuffer{}
	inj := chaos.New(chaos.Config{
		Seed:      7,
		PReset:    0.25,
		PError:    0.25,
		PTruncate: 0.25,
	})
	srv := New(Config{Logger: jsonLogger(sink), Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	const reqs = 20
	for i := 0; i < reqs; i++ {
		resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body))
		if err == nil {
			// Drain the (possibly truncated) body; transport errors here
			// are expected chaos.
			var sink bytes.Buffer
			_, _ = sink.ReadFrom(resp.Body)
			resp.Body.Close()
		}
	}
	if inj.Counters().Faulted() == 0 {
		t.Fatal("chaos injected no faults; test proves nothing")
	}

	lines := waitRequestLogs(t, sink, reqs)
	if len(lines) != reqs {
		t.Fatalf("%d requests produced %d request log lines", reqs, len(lines))
	}
	for _, line := range lines {
		if line["trace_id"] == "" || line["endpoint"] != "embed" {
			t.Fatalf("malformed request line: %v", line)
		}
		if _, ok := line["result"].(string); !ok {
			t.Fatalf("request line without result: %v", line)
		}
	}
}

// TestObserveDisabledPassThrough: no logger and no trace header means no
// trace header on the response and no server-timing header — the
// disabled path must not quietly turn itself on.
func TestObserveDisabledPassThrough(t *testing.T) {
	fx := makeFixture(t, "alice")
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body := encodeLikeServer(t, map[string]any{
		"design": fx.designText, "signature": "alice",
		"tau": 16, "k": 3, "epsilon": 0.4,
	})
	resp, _ := postJSON(t, http.DefaultClient, ts.URL+"/v1/embed", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "" {
		t.Fatalf("untraced request got trace header %q", got)
	}
	if got := resp.Header.Get(obs.TimingHeader); got != "" {
		t.Fatalf("untraced request got timing header %q", got)
	}
}

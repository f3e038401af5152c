package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// fixture is one marked design with everything a detect/verify request
// needs: the original design text, the suspect schedule text, and the
// detection records, all produced through the engine's sequential path.
type fixture struct {
	designText   string
	scheduleText string
	records      []lwmapi.Record
}

func makeFixture(t *testing.T, sig string) *fixture {
	t.Helper()
	g := designs.DAConverter()
	var orig bytes.Buffer
	if err := cdfg.Write(&orig, g); err != nil {
		t.Fatal(err)
	}
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedwm.Config{Tau: 16, K: 3, Epsilon: 0.4, Budget: cp + cp/10 + 1}
	marked := g.Clone()
	wms, err := schedwm.EmbedMany(marked, []byte(sig), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(marked, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var schedText bytes.Buffer
	if err := sched.WriteSchedule(&schedText, marked, s); err != nil {
		t.Fatal(err)
	}
	fx := &fixture{designText: orig.String(), scheduleText: schedText.String()}
	for _, wm := range wms {
		fx.records = append(fx.records, lwmapi.FromSchedRecord(wm.Record()))
	}
	return fx
}

func postJSON(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// encodeLikeServer renders v exactly as writeJSON does, so byte-identity
// assertions compare like with like.
func encodeLikeServer(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonDetectConcurrentByteIdentical is the e2e acceptance test: N
// concurrent /v1/detect batch requests over a real TCP socket must all
// return byte-for-byte the response the sequential CLI path computes.
func TestDaemonDetectConcurrentByteIdentical(t *testing.T) {
	fx := makeFixture(t, "alice")
	srv := New(Config{EngineWorkers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	reqBody, err := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
		Workers:  8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference: the sched protocol on one worker, as the CLI
	// runs it in-process.
	want := detectReference(t, fx)

	const concurrent = 8
	bodies := make([][]byte, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", reqBody)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("request %d diverged from the sequential path:\ngot  %s\nwant %s", i, b, want)
		}
	}

	var parsed lwmapi.DetectResponse
	if err := json.Unmarshal(want, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Detected != len(fx.records) {
		t.Fatalf("detected %d of %d watermarks", parsed.Detected, len(fx.records))
	}
}

// TestDaemonEmbedVerifyRoundTrip drives the full service protocol over
// the socket: embed on the daemon, schedule locally, verify on the
// daemon, and check the marked design equals the sequential embedding.
func TestDaemonEmbedVerifyRoundTrip(t *testing.T) {
	g := designs.DAConverter()
	var designText bytes.Buffer
	if err := cdfg.Write(&designText, g); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{EngineWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	embedBody, _ := json.Marshal(lwmapi.EmbedRequest{
		Design: designText.String(), Signature: "owner",
		MarkParams: lwmapi.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4, Workers: 4},
	})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/embed", embedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed: status %d: %s", resp.StatusCode, data)
	}
	var er lwmapi.EmbedResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if er.Watermarks != 2 || er.TemporalEdges == 0 || len(er.Records) != 2 {
		t.Fatalf("embed response: %+v", er)
	}

	// The daemon's marked design must equal the sequential embedding.
	ref := g.Clone()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schedwm.EmbedMany(ref, []byte("owner"),
		schedwm.Config{Tau: 16, K: 3, Epsilon: 0.4, Budget: cp + cp/10 + 1}, 2); err != nil {
		t.Fatal(err)
	}
	var refText bytes.Buffer
	if err := cdfg.Write(&refText, ref); err != nil {
		t.Fatal(err)
	}
	if er.MarkedDesign != refText.String() {
		t.Fatal("daemon embedding diverged from sequential embedding")
	}

	// Schedule the marked design locally, then adjudicate over the wire.
	markedG, err := cdfg.Parse(strings.NewReader(er.MarkedDesign))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(markedG, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var schedText bytes.Buffer
	if err := sched.WriteSchedule(&schedText, markedG, s); err != nil {
		t.Fatal(err)
	}
	verifyBody, _ := json.Marshal(lwmapi.VerifyRequest{
		Design: designText.String(), Schedule: schedText.String(), Signature: "owner",
		MarkParams: lwmapi.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4},
	})
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/verify", verifyBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: status %d: %s", resp.StatusCode, data)
	}
	var vr lwmapi.VerifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Verified {
		t.Fatalf("ownership claim not verified: %+v", vr)
	}
	// An impostor's claim must fail.
	impostorBody, _ := json.Marshal(lwmapi.VerifyRequest{
		Design: designText.String(), Schedule: schedText.String(), Signature: "mallory",
		MarkParams: lwmapi.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4},
	})
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/verify", impostorBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("impostor verify: status %d: %s", resp.StatusCode, data)
	}
	var ir lwmapi.VerifyResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Verified {
		t.Fatal("impostor claim verified")
	}
}

// TestDaemonBackpressureAndDrain scripts the 429/503 acceptance
// scenario deterministically: one worker blocked on a test hook, a
// capacity-1 queue occupied, a third request bounced with 429 and
// Retry-After, then a graceful drain (the SIGTERM path) finishing the
// admitted work while rejecting new work with 503.
func TestDaemonBackpressureAndDrain(t *testing.T) {
	fx := makeFixture(t, "drain")
	srv := New(Config{DetectWorkers: 1, QueueSize: 1, RetryAfter: 2 * time.Second})
	release := make(chan struct{})
	srv.testJobStart = func(string) { <-release }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func() {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
		results <- result{resp.StatusCode, data}
	}
	go post() // request A: admitted, blocks on the hook
	go post() // request B: fills the single queue slot

	// Wait until A runs and B is parked in the queue.
	q := srv.queues[epDetect]
	deadline := time.Now().Add(5 * time.Second)
	for q.depth() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("requests never settled; depth %d", q.depth())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Request C: full queue — 429 with the Retry-After hint, immediately.
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	// Begin the graceful drain while A and B are still outstanding.
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Shutdown(context.Background()) }()
	for !srv.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	// New work during the drain: rejected with 503 and the same
	// Retry-After hint as the 429 path, so a well-behaved client backs
	// off instead of hammering a dying instance.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d: %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("drain 503 Retry-After = %q, want \"2\"", ra)
	}
	hc, _ := ts.Client().Get(ts.URL + "/healthz")
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d", hc.StatusCode)
	}
	if ra := hc.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("healthz 503 Retry-After = %q, want \"2\"", ra)
	}

	// Release the hook: A and B must complete normally and drain returns.
	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("drained request finished with %d: %s", r.status, r.body)
		}
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestDaemonPanicIsolation: a panic inside one request answers 500 and
// the daemon keeps serving.
func TestDaemonPanicIsolation(t *testing.T) {
	fx := makeFixture(t, "boom")
	srv := New(Config{})
	first := true
	var mu sync.Mutex
	srv.testJobStart = func(string) {
		mu.Lock()
		defer mu.Unlock()
		if first {
			first = false
			panic("scripted crash")
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", resp.StatusCode, data)
	}
}

// TestDaemonQueuedDeadline: a request that waits out its whole deadline
// in the queue is answered 504 and never executes.
func TestDaemonQueuedDeadline(t *testing.T) {
	fx := makeFixture(t, "late")
	srv := New(Config{DetectWorkers: 1, QueueSize: 2, RequestTimeout: 80 * time.Millisecond})
	release := make(chan struct{})
	srv.testJobStart = func(string) { <-release }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		postJSON(t, ts.Client(), ts.URL+"/v1/detect", body) // request A occupies the worker
	}()
	q := srv.queues[epDetect]
	for q.depth() < 1 {
		time.Sleep(time.Millisecond)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired-in-queue request: status %d: %s", resp.StatusCode, data)
	}
	close(release)
	<-blocked
	srv.Shutdown(context.Background())
}

// TestDaemonRequestValidation covers the 400/405 surface.
func TestDaemonRequestValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for name, tc := range map[string]struct {
		path   string
		body   string
		status int
	}{
		"bad-json":       {"/v1/embed", "{", http.StatusBadRequest},
		"unknown-field":  {"/v1/embed", `{"desing":"x"}`, http.StatusBadRequest},
		"empty-design":   {"/v1/embed", `{"design":"","signature":"a"}`, http.StatusBadRequest},
		"no-signature":   {"/v1/embed", `{"design":"node a add"}`, http.StatusBadRequest},
		"negative-n":     {"/v1/embed", `{"design":"node a add","signature":"s","n":-1}`, http.StatusBadRequest},
		"bad-design":     {"/v1/embed", `{"design":"frobnicate","signature":"a"}`, http.StatusBadRequest},
		"no-suspects":    {"/v1/detect", `{"records":[{}]}`, http.StatusBadRequest},
		"no-records":     {"/v1/detect", `{"suspects":[{"design":"node a add","schedule":""}]}`, http.StatusBadRequest},
		"bad-schedule":   {"/v1/verify", `{"design":"node a add","schedule":"garbage","signature":"s"}`, http.StatusBadRequest},
		"bad-epsilon":    {"/v1/embed", `{"design":"node a add","signature":"s","epsilon":7}`, http.StatusBadRequest},
		"empty-verify":   {"/v1/verify", `{}`, http.StatusBadRequest},
		"detect-unknown": {"/v1/detect", `{"suspects":[{"design":"node a add","schedule":"step nosuch 1"}],"records":[{}]}`, http.StatusBadRequest},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+tc.path, []byte(tc.body))
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", name, resp.StatusCode, tc.status, data)
		}
		var eb lwmapi.Error
		if err := json.Unmarshal(data, &eb); err != nil || eb.LegacyMessage == "" {
			t.Errorf("%s: error body malformed: %s", name, data)
		}
		if eb.Code != lwmapi.CodeBadRequest || eb.Message != eb.LegacyMessage || eb.Status != tc.status || eb.Retryable {
			t.Errorf("%s: typed envelope malformed: %+v", name, eb)
		}
	}

	get, err := ts.Client().Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on API endpoint = %d, want 405", get.StatusCode)
	}
}

// TestDaemonStatsAndDebug checks the observability surface end to end:
// request counters, queue metrics, latency quantiles, oracle counters,
// and the debug mux.
func TestDaemonStatsAndDebug(t *testing.T) {
	fx := makeFixture(t, "metrics")
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	dbg := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()
	defer dbg.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("detect %d: %d %s", i, resp.StatusCode, data)
		}
	}

	st := getStats(t, ts.URL)
	if ok := st.value(t, "lwmd_requests_total", "endpoint=detect", "result=ok"); ok < 3 {
		t.Fatalf("detect ok = %v, want >= 3", ok)
	}
	lat := st.series(t, "lwmd_request_duration_seconds", "endpoint=detect")
	if lat.Count < 3 || lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Fatalf("detect latency histogram: %+v", lat)
	}
	if c := st.value(t, "lwmd_queue_capacity", "endpoint=detect"); c <= 0 {
		t.Fatalf("detect queue capacity = %v", c)
	}
	if st.value(t, "lwmd_oracle_hits_total")+st.value(t, "lwmd_oracle_misses_total") == 0 {
		t.Fatal("oracle counters empty after detections")
	}

	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := dbg.Client().Get(dbg.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestDetectNegativeRankRecord: a record whose rank edge names rank -1
// is client input that maps nowhere. Fanned out over two workers next
// to a valid record, it reads found: false, and the valid record's
// outcome is byte-identical to a request carrying it alone.
func TestDetectNegativeRankRecord(t *testing.T) {
	fx := makeFixture(t, "alice")
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	bad := fx.records[0]
	bad.RankEdges = append([][2]int(nil), bad.RankEdges...)
	bad.RankEdges[0][0] = -1
	detect := func(recs ...lwmapi.Record) [][]json.RawMessage {
		t.Helper()
		body, _ := json.Marshal(lwmapi.DetectRequest{
			Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
			Records:  recs,
			Workers:  2,
		})
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect: status %d: %s", resp.StatusCode, data)
		}
		var out struct {
			Results [][]json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out.Results
	}
	both := detect(bad, fx.records[1])
	alone := detect(fx.records[1])

	var badOut, goodOut lwmapi.DetectOutcome
	if err := json.Unmarshal(both[0][0], &badOut); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(alone[0][0], &goodOut); err != nil {
		t.Fatal(err)
	}
	if badOut.Found || badOut.Error != "" {
		t.Errorf("negative-rank record: %s, want found false and no error", both[0][0])
	}
	if !goodOut.Found {
		t.Fatalf("valid record not found: %s", alone[0][0])
	}
	if !bytes.Equal(both[0][1], alone[0][0]) {
		t.Errorf("valid record's outcome changed next to the bad one:\n%s\n%s", both[0][1], alone[0][0])
	}
}

// TestEngineWorkersClamped: requested parallelism is clamped to the
// configured cap and floored at 1, and detect results stay identical for
// any value (the engine's determinism contract carried to the wire).
func TestEngineWorkersClamped(t *testing.T) {
	srv := New(Config{MaxEngineWorkers: 3, EngineWorkers: 2})
	defer srv.Shutdown(context.Background())
	for req, want := range map[int]int{0: 2, -5: 1, 1: 1, 3: 3, 99: 3} {
		if got := srv.engineWorkers(req); got != want {
			t.Errorf("engineWorkers(%d) = %d, want %d", req, got, want)
		}
	}

	fx := makeFixture(t, "clamp")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var ref []byte
	for _, workers := range []int{-2, 0, 1, 99} {
		body, _ := json.Marshal(lwmapi.DetectRequest{
			Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
			Records:  fx.records,
			Workers:  workers,
		})
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, data)
		}
		if ref == nil {
			ref = data
		} else if !bytes.Equal(ref, data) {
			t.Fatalf("workers=%d produced different bytes", workers)
		}
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"localwm/internal/chaos"
	"localwm/internal/family"
	"localwm/internal/jobs"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

// detectJobBody marshals the fixture's detect request wrapped as a job
// submission.
func detectJobBody(t *testing.T, fx *fixture, idemKey string) ([]byte, lwmapi.DetectRequest) {
	t.Helper()
	dreq := lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
		Workers:  4,
	}
	body, err := json.Marshal(lwmapi.JobRequest{Kind: lwmapi.JobKindDetect, Detect: &dreq, IdempotencyKey: idemKey})
	if err != nil {
		t.Fatal(err)
	}
	return body, dreq
}

// detectReference computes the fixture's detect response through the
// sched protocol on one worker, as lwm detect does in-process, encoded
// exactly as the server encodes — the byte-identity oracle.
func detectReference(t *testing.T, fx *fixture) []byte {
	t.Helper()
	proto, err := family.Lookup("sched")
	if err != nil {
		t.Fatal(err)
	}
	d, err := proto.ParseDesign(fx.designText)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := proto.ParseSolution(d, fx.scheduleText)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := proto.Detect(context.Background(), []family.Suspect{{Design: d, Solution: sol}}, fx.records, 1)
	if err != nil {
		t.Fatal(err)
	}
	return encodeLikeServer(t, resp)
}

func getBody(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeStatus(t *testing.T, data []byte) lwmapi.JobStatus {
	t.Helper()
	var st lwmapi.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("decoding job status %q: %v", data, err)
	}
	return st
}

// waitJobHTTP long-polls the status endpoint until the job is terminal.
func waitJobHTTP(t *testing.T, client *http.Client, base, id string) lwmapi.JobStatus {
	t.Helper()
	since := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		url := fmt.Sprintf("%s/v1/jobs/%s?wait=5s&since=%d", base, id, since)
		resp, data := getBody(t, client, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("long-poll status %d: %s", resp.StatusCode, data)
		}
		st := decodeStatus(t, data)
		if st.Terminal {
			return st
		}
		since = st.Version
	}
	t.Fatalf("job %s not terminal in time", id)
	return lwmapi.JobStatus{}
}

// TestJobsDetectByteIdenticalToSync is the tentpole acceptance test at
// the HTTP layer: an async detect job's stored result must be
// byte-for-byte the synchronous /v1/detect response for the same
// request, which itself matches the sequential CLI-path reference.
func TestJobsDetectByteIdenticalToSync(t *testing.T) {
	fx := makeFixture(t, "alice")
	srv := New(Config{EngineWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	jobBody, dreq := detectJobBody(t, fx, "")
	syncBody, err := json.Marshal(dreq)
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)
	if st.ID == "" || st.Kind != lwmapi.JobKindDetect {
		t.Fatalf("submit answered %+v", st)
	}

	final := waitJobHTTP(t, ts.Client(), ts.URL, st.ID)
	if final.State != lwmapi.JobDone {
		t.Fatalf("job state %s (err %q), want done", final.State, final.Error)
	}
	rresp, asyncBytes := getBody(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID+"/result")
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", rresp.StatusCode, asyncBytes)
	}
	if ct := rresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("result content-type %q", ct)
	}

	sresp, syncBytes := postJSON(t, ts.Client(), ts.URL+"/v1/detect", syncBody)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync detect status %d: %s", sresp.StatusCode, syncBytes)
	}
	if !bytes.Equal(asyncBytes, syncBytes) {
		t.Fatalf("async result (%d bytes) != sync response (%d bytes)", len(asyncBytes), len(syncBytes))
	}
	if want := detectReference(t, fx); !bytes.Equal(asyncBytes, want) {
		t.Fatalf("async result diverges from the sequential reference")
	}
}

// TestJobsSubmitValidation exercises the 400 surface: kind/payload
// mismatch, missing payload, unknown kind.
func TestJobsSubmitValidation(t *testing.T) {
	srv := New(Config{EngineWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	cases := []struct {
		name string
		body string
	}{
		{"missing payload", `{"kind":"embed"}`},
		{"mismatched payload", `{"kind":"embed","detect":{"suspects":[]}}`},
		{"two payloads", `{"kind":"embed","embed":{},"detect":{}}`},
		{"unknown kind", `{"kind":"transmogrify","embed":{}}`},
		{"no kind", `{"embed":{}}`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
			continue
		}
		var e lwmapi.Error
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: error body %q: %v", tc.name, data, err)
			continue
		}
		if e.Code != lwmapi.CodeBadRequest || e.Retryable {
			t.Errorf("%s: error %+v, want non-retryable bad_request", tc.name, e)
		}
	}
}

// TestJobsUnknownID pins the 404 surface across all three job GET
// routes.
func TestJobsUnknownID(t *testing.T) {
	srv := New(Config{EngineWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, path := range []string{"/v1/jobs/j-nope", "/v1/jobs/j-nope/result", "/v1/jobs/j-nope/events"} {
		resp, data := getBody(t, ts.Client(), ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404: %s", path, resp.StatusCode, data)
			continue
		}
		var e lwmapi.Error
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("GET %s: error body %q: %v", path, data, err)
			continue
		}
		if e.Code != lwmapi.CodeJobNotFound {
			t.Errorf("GET %s: code %q, want %q", path, e.Code, lwmapi.CodeJobNotFound)
		}
	}
}

// TestJobsFailedResultGone checks a permanently failing job (garbage
// design text → engine 400) lands failed on its first attempt and its
// result endpoint answers 410 job_failed.
func TestJobsFailedResultGone(t *testing.T) {
	srv := New(Config{EngineWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, err := json.Marshal(lwmapi.JobRequest{
		Kind:  lwmapi.JobKindEmbed,
		Embed: &lwmapi.EmbedRequest{Design: "this is not a cdfg", Signature: "alice"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)

	final := waitJobHTTP(t, ts.Client(), ts.URL, st.ID)
	if final.State != lwmapi.JobFailed {
		t.Fatalf("job state %s, want failed", final.State)
	}
	if final.Attempt != 1 {
		t.Fatalf("attempt %d, want 1 (permanent failures skip retries)", final.Attempt)
	}
	if final.Error == "" {
		t.Fatal("failed status carries no error")
	}

	rresp, rdata := getBody(t, ts.Client(), ts.URL+"/v1/jobs/"+st.ID+"/result")
	if rresp.StatusCode != http.StatusGone {
		t.Fatalf("result status %d, want 410: %s", rresp.StatusCode, rdata)
	}
	var e lwmapi.Error
	if err := json.Unmarshal(rdata, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != lwmapi.CodeJobFailed || e.Retryable {
		t.Fatalf("result error %+v, want non-retryable job_failed", e)
	}
}

// TestJobsSSEStream reads the events endpoint to EOF and checks the
// stream ends on a terminal status event for the job.
func TestJobsSSEStream(t *testing.T) {
	fx := makeFixture(t, "alice")
	srv := New(Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	jobBody, _ := detectJobBody(t, fx, "")
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)

	sresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var events []lwmapi.JobStatus
	scanner := bufio.NewScanner(sresp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			events = append(events, decodeStatus(t, []byte(data)))
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events on the stream")
	}
	last := events[len(events)-1]
	if !last.Terminal || last.State != lwmapi.JobDone {
		t.Fatalf("final event %+v, want terminal done", last)
	}
	for i, ev := range events {
		if ev.ID != st.ID {
			t.Fatalf("event %d for job %s, want %s", i, ev.ID, st.ID)
		}
		if i > 0 && ev.Version <= events[i-1].Version {
			t.Fatalf("event versions not increasing: %d then %d", events[i-1].Version, ev.Version)
		}
	}
}

// TestJobsChaosEndToEnd is the seeded chaos campaign: a batch of async
// jobs submitted through the fault injector with the resilient client
// must all reach a terminal state, and every completed result must be
// byte-identical to the no-chaos sequential reference. Idempotency keys
// make the chaos-forced submit retries safe.
func TestJobsChaosEndToEnd(t *testing.T) {
	fx := makeFixture(t, "alice")
	inj := chaos.New(chaos.Config{
		Seed:       42,
		PLatency:   0.20,
		MaxLatency: 5 * time.Millisecond,
		PReset:     0.15,
		PError:     0.15,
		PTruncate:  0.10,
	})
	srv := New(Config{EngineWorkers: 4, Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	client, err := lwmclient.New(lwmclient.Config{
		BaseURL:     ts.URL,
		MaxAttempts: 10,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		HTTPClient:  ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := detectReference(t, fx)
	dreq := lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
		Workers:  2,
	}

	const batch = 6
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ids := make([]string, batch)
	for i := 0; i < batch; i++ {
		st, err := client.SubmitJob(ctx, lwmclient.JobRequest{
			Kind:           lwmapi.JobKindDetect,
			Detect:         &dreq,
			IdempotencyKey: fmt.Sprintf("chaos-%d", i),
		})
		if err != nil {
			t.Fatalf("submit %d through chaos: %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		raw, err := client.WaitJobResult(ctx, id)
		if err != nil {
			t.Fatalf("job %d (%s) through chaos: %v", i, id, err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("job %d (%s): result diverges from the reference under chaos", i, id)
		}
	}
}

// TestJobsCrashRecoveryEndToEnd is the in-process kill-restart
// campaign: submit a batch against a durable manager, hard-kill the
// manager mid-flight, restart a fresh manager + server on the same
// directory, and require every job to survive, converge, and produce
// results byte-identical to the synchronous endpoint.
func TestJobsCrashRecoveryEndToEnd(t *testing.T) {
	fx := makeFixture(t, "alice")
	dir := t.TempDir()

	m1, err := jobs.Open(jobs.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{EngineWorkers: 4, Jobs: m1})
	ts1 := httptest.NewServer(srv1.Handler())

	const batch = 4
	ids := make([]string, batch)
	for i := 0; i < batch; i++ {
		jobBody, _ := detectJobBody(t, fx, fmt.Sprintf("crash-%d", i))
		resp, data := postJSON(t, ts1.Client(), ts1.URL+"/v1/jobs", jobBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
		ids[i] = decodeStatus(t, data).ID
	}

	// The crash: some jobs are queued, some mid-attempt. Kill records
	// nothing for in-flight attempts, so the WAL is exactly what a
	// SIGKILL would leave.
	m1.Kill()
	ts1.Close()
	srv1.Shutdown(context.Background())

	m2, err := jobs.Open(jobs.Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer m2.Close(context.Background())
	for i, id := range ids {
		j, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %d (%s) lost by the crash", i, id)
		}
		if j.State == jobs.StateRunning {
			t.Fatalf("job %d (%s) replayed as running; recovery must demote", i, id)
		}
	}

	srv2 := New(Config{EngineWorkers: 4, Jobs: m2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())

	_, dreq := detectJobBody(t, fx, "")
	syncBody, err := json.Marshal(dreq)
	if err != nil {
		t.Fatal(err)
	}
	sresp, syncBytes := postJSON(t, ts2.Client(), ts2.URL+"/v1/detect", syncBody)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync detect status %d: %s", sresp.StatusCode, syncBytes)
	}

	for i, id := range ids {
		final := waitJobHTTP(t, ts2.Client(), ts2.URL, id)
		if final.State != lwmapi.JobDone {
			t.Fatalf("job %d (%s): state %s (err %q) after restart, want done", i, id, final.State, final.Error)
		}
		rresp, raw := getBody(t, ts2.Client(), ts2.URL+"/v1/jobs/"+id+"/result")
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("job %d (%s): result status %d: %s", i, id, rresp.StatusCode, raw)
		}
		if !bytes.Equal(raw, syncBytes) {
			t.Fatalf("job %d (%s): async result != sync response after crash recovery", i, id)
		}
	}

	// The submissions' idempotency keys survived the crash too: a
	// resubmit dedupes onto the recovered job rather than re-running it.
	jobBody, _ := detectJobBody(t, fx, "crash-0")
	resp, data := postJSON(t, ts2.Client(), ts2.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d: %s", resp.StatusCode, data)
	}
	if got := decodeStatus(t, data); got.ID != ids[0] {
		t.Fatalf("resubmit answered job %s, want dedup onto %s", got.ID, ids[0])
	}
}

// TestJobsMetricsExposed checks the jobs counters reach the Prometheus
// surface after a job runs.
func TestJobsMetricsExposed(t *testing.T) {
	fx := makeFixture(t, "alice")
	srv := New(Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	jobBody, _ := detectJobBody(t, fx, "")
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/jobs", jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	waitJobHTTP(t, ts.Client(), ts.URL, decodeStatus(t, data).ID)

	mresp, metrics := getBody(t, ts.Client(), ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	text := string(metrics)
	for _, want := range []string{
		"lwmd_jobs_submitted_total 1",
		"lwmd_jobs_completed_total 1",
		"lwmd_jobs_failed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

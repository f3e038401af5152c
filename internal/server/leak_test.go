package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"localwm/internal/jobs"
	"localwm/internal/obs/profiler"
	"localwm/internal/obs/recorder"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// TestServerShutdownJoinsGoroutines builds a daemon the way cmd/lwmd
// does — an in-memory design store and job manager, a flight recorder
// and a profiler with its capture loop started — sends one request to
// every endpoint of both muxes, shuts everything down in lwmd's order,
// and requires the goroutine count to settle back to where it started.
// The job's webhook receiver stays up throughout, as a real one does.
func TestServerShutdownJoinsGoroutines(t *testing.T) {
	hooks := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
	}))
	defer hooks.Close()
	base := runtime.NumGoroutine()

	fx := makeFixture(t, "leak")
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	jm, err := jobs.Open(jobs.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The capture loop runs but stays idle: a cycle holds the profiler's
	// lock through its CPU sample, and the metrics scrapes below would
	// wait it out. One cycle up front gives /v1/profiles something to list.
	prof, err := profiler.New(profiler.Config{Dir: t.TempDir(), Interval: time.Hour, CPUDuration: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	prof.CaptureOnce("test")
	srv := New(Config{
		Store:         st,
		Jobs:          jm,
		Recorder:      recorder.New(recorder.Config{Capacity: 16, SampleRate: 1}),
		Profiler:      prof,
		EngineWorkers: 2,
	})
	prof.Start()
	api := httptest.NewServer(srv.Handler())
	debug := httptest.NewServer(srv.DebugHandler())
	client := &http.Client{Transport: &http.Transport{}}

	call := func(method, url string, v any) []byte {
		t.Helper()
		var body []byte
		if v != nil {
			var err error
			if body, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		resp, data := doJSON(t, client, method, url, body)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
		}
		return data
	}
	var put lwmapi.PutDesignResponse
	if err := json.Unmarshal(call(http.MethodPut, api.URL+"/v1/designs", lwmapi.PutDesignRequest{Design: fx.designText}), &put); err != nil {
		t.Fatal(err)
	}
	call(http.MethodGet, api.URL+"/v1/designs/"+put.Ref, nil)
	mark := lwmapi.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4}
	call(http.MethodPost, api.URL+"/v1/embed", lwmapi.EmbedRequest{DesignRef: put.Ref, Signature: "leak", MarkParams: mark})
	call(http.MethodPost, api.URL+"/v1/detect", lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	call(http.MethodPost, api.URL+"/v1/verify", lwmapi.VerifyRequest{
		Design: fx.designText, Schedule: fx.scheduleText, Signature: "leak", MarkParams: mark,
	})
	var robust lwmapi.RobustnessRequest
	if err := json.Unmarshal(robustBody(t, fx, nil), &robust); err != nil {
		t.Fatal(err)
	}
	call(http.MethodPost, api.URL+"/v1/robustness", robust)
	var job lwmapi.JobStatus
	if err := json.Unmarshal(call(http.MethodPost, api.URL+"/v1/jobs", lwmapi.JobRequest{
		Kind:       lwmapi.JobKindEmbed,
		Embed:      &lwmapi.EmbedRequest{Design: fx.designText, Signature: "leak", MarkParams: mark},
		WebhookURL: hooks.URL,
	}), &job); err != nil {
		t.Fatal(err)
	}
	waitJobHTTP(t, client, api.URL, job.ID)
	call(http.MethodGet, api.URL+"/v1/jobs/"+job.ID+"/events", nil)
	for _, path := range []string{"/v1/families", "/v1/stats", "/metrics", "/healthz", "/v1/traces", "/v1/profiles"} {
		call(http.MethodGet, api.URL+path, nil)
	}
	for _, path := range []string{"/metrics", "/v1/traces", "/v1/profiles", "/debug/pprof/"} {
		call(http.MethodGet, debug.URL+path, nil)
	}
	// The webhook lands after the job's terminal status: wait for it so
	// the drain below meets a delivered hook, not one in flight.
	deadline := time.Now().Add(10 * time.Second)
	for jm.Counters().WebhookDeliveries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("webhook never delivered")
		}
		time.Sleep(time.Millisecond)
	}

	// lwmd's order: drain the server, close the jobs, stop serving, stop
	// the profiler, close the store.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := jm.Close(ctx); err != nil {
		t.Fatal(err)
	}
	api.Close()
	debug.Close()
	client.CloseIdleConnections()
	prof.Close()
	st.Close()

	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

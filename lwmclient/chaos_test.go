// Chaos suite: the resilience acceptance tests. A real daemon (the same
// internal/server the lwmd binary mounts) runs with the internal/chaos
// fault injector enabled — seeded latency, connection resets, 500s, and
// truncated bodies — and the resilient client must converge to results
// byte-identical to a fault-free service, with bounded attempts and the
// circuit breaker observed to open and re-close. This is the systems
// analogue of the paper's thesis: many small, independently detectable
// pieces survive partial loss.
//
// Determinism: the injector's fault sequence is a pure function of the
// seed and request arrival order, and the client sends sequentially, so
// these tests replay the same fault pattern every run.
package lwmclient_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/chaos"
	"localwm/internal/designs"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/server"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

// fixture is one marked design with everything detect/verify needs, all
// produced through the sequential engine path.
type fixture struct {
	designText   string
	scheduleText string
	records      []lwmclient.Record
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

// chaosMix is the suite's fault configuration: ~37% of requests get a
// hard fault (reset, 500, or truncation), plus added latency.
func chaosMix(seed int64) chaos.Config {
	return chaos.Config{
		Seed:       seed,
		PLatency:   0.20,
		MaxLatency: 3 * time.Millisecond,
		PReset:     0.15,
		PError:     0.15,
		PTruncate:  0.15,
	}
}

// resilientClient builds a client tuned for the suite: chunked singly,
// quick backoff, and a hair-trigger breaker (one failure opens it) so
// the open→half-open→closed cycle is guaranteed to be observed.
func resilientClient(t *testing.T, url string) *lwmclient.Client {
	t.Helper()
	c, err := lwmclient.New(lwmclient.Config{
		BaseURL: url,
		// Keep-alives off so transport-level resets surface to the
		// retry loop instead of being silently replayed by net/http.
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		MaxAttempts:    8,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     4 * time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		CallTimeout:    60 * time.Second,
		ChunkSize:      1,
		Breaker: lwmclient.BreakerConfig{
			ConsecutiveFailures: 1,
			OpenTimeout:         2 * time.Millisecond,
			HalfOpenSuccesses:   1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChaosBatchDetectConvergesByteIdentical is the acceptance test:
// with >20% of requests hard-faulted, a chunked batch detect completes
// with every row byte-identical to the fault-free service (itself pinned
// byte-identical to the sequential engine path by the internal/server
// suite), attempts bounded by the configured cap, and the breaker
// observed to open and re-close.
func TestChaosBatchDetectConvergesByteIdentical(t *testing.T) {
	fx := makeFixture(t, "chaos-detect")
	inj := chaos.New(chaosMix(2026))
	srv := server.New(server.Config{EngineWorkers: 2, Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// Fault-free reference service for the expected grid.
	refSrv := server.New(server.Config{EngineWorkers: 2})
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	defer refSrv.Shutdown(context.Background())

	const suspects = 12
	req := lwmclient.DetectRequest{Records: fx.records}
	for i := 0; i < suspects; i++ {
		req.Suspects = append(req.Suspects, lwmclient.Suspect{Design: fx.designText, Schedule: fx.scheduleText})
	}

	refClient := resilientClient(t, refTS.URL)
	want, err := refClient.Detect(context.Background(), req)
	if err != nil || !want.Complete() {
		t.Fatalf("reference detect: %v, failed chunks %v", err, want.Failed)
	}
	if rc := refClient.Counters(); rc.Attempts != suspects || rc.Retries != 0 {
		t.Fatalf("fault-free service still cost retries: %+v", rc)
	}

	c := resilientClient(t, ts.URL)
	got, err := c.Detect(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Complete() {
		t.Fatalf("batch incomplete under chaos: %v", got.Failed)
	}

	wantJSON, _ := json.Marshal(want.Results)
	gotJSON, _ := json.Marshal(got.Results)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("chaos results diverged from fault-free service:\ngot  %s\nwant %s", gotJSON, wantJSON)
	}
	if got.Detected != want.Detected || got.Detected != suspects*len(fx.records) {
		t.Fatalf("detected %d, want %d", got.Detected, want.Detected)
	}

	cs := c.Counters()
	if cs.Attempts > suspects*8 {
		t.Fatalf("attempts %d exceed the %d cap", cs.Attempts, suspects*8)
	}
	if cs.Retries == 0 {
		t.Fatal("no retries under a 37% fault rate — injection did not reach the client")
	}
	if cs.BreakerOpens < 1 || cs.BreakerCloses < 1 {
		t.Fatalf("breaker never cycled: %+v", cs)
	}
	if c.BreakerState() != "closed" {
		t.Fatalf("breaker finished %s, want closed", c.BreakerState())
	}

	ic := inj.Counters()
	if ic.Faulted()*5 < ic.Requests {
		t.Fatalf("injected fault rate below 20%%: %+v", ic)
	}
	t.Logf("chaos: %d requests, %d faulted (%d resets, %d 500s, %d truncations); client: %d attempts, %d retries, breaker opened %d closed %d",
		ic.Requests, ic.Faulted(), ic.Resets, ic.Errors, ic.Truncations,
		cs.Attempts, cs.Retries, cs.BreakerOpens, cs.BreakerCloses)
}

// TestChaosEmbedVerifyRoundTrip: embed and verify through the faulted
// daemon; the marked design must be byte-identical to the sequential
// embedding and the ownership verdict must hold.
func TestChaosEmbedVerifyRoundTrip(t *testing.T) {
	g := designs.DAConverter()
	var designText bytes.Buffer
	if err := cdfg.Write(&designText, g); err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaosMix(7))
	srv := server.New(server.Config{EngineWorkers: 2, Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	c := resilientClient(t, ts.URL)

	params := lwmclient.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4}
	er, err := c.Embed(context.Background(), lwmclient.EmbedRequest{
		Design: designText.String(), Signature: "owner", MarkParams: params,
	})
	if err != nil {
		t.Fatalf("embed under chaos: %v", err)
	}
	if er.Watermarks != 2 || len(er.Records) != 2 {
		t.Fatalf("embed response: %+v", er)
	}

	// Sequential reference embedding.
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
		t.Fatal("chaos-path embedding diverged from the sequential embedding")
	}

	// Schedule locally, adjudicate over the faulted wire.
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
	vr, err := c.Verify(context.Background(), lwmclient.VerifyRequest{
		Design: designText.String(), Schedule: schedText.String(),
		Signature: "owner", MarkParams: params,
	})
	if err != nil {
		t.Fatalf("verify under chaos: %v", err)
	}
	if !vr.Verified {
		t.Fatalf("ownership claim not verified: %+v", vr)
	}
	if ic := inj.Counters(); ic.Faulted() == 0 {
		t.Fatalf("no faults injected: %+v", ic)
	}
}

// TestChaosCountersOnStatsEndpoint: /v1/stats carries the injected-fault
// counters (and /v1/stats itself is never injected).
func TestChaosCountersOnStatsEndpoint(t *testing.T) {
	fx := makeFixture(t, "chaos-stats")
	inj := chaos.New(chaos.Config{Seed: 3, PError: 1})
	srv := server.New(server.Config{Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(map[string]any{
		"suspects": []map[string]string{{"design": fx.designText, "schedule": fx.scheduleText}},
		"records":  fx.records,
	})
	resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("PError=1 detect = %d, want 500", resp.StatusCode)
	}

	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats through chaos wiring = %d", sr.StatusCode)
	}
	var stats map[string][]struct {
		Labels map[string]string `json:"labels"`
		Value  float64           `json:"value"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats payload: %v: %s", err, data)
	}
	requests := stats["lwmd_chaos_requests_total"]
	var errors500 float64
	for _, s := range stats["lwmd_chaos_faults_total"] {
		if s.Labels["kind"] == "error" {
			errors500 = s.Value
		}
	}
	if len(requests) != 1 || requests[0].Value != 1 || errors500 != 1 {
		t.Fatalf("chaos series on /v1/stats: requests %v, errors %v", requests, errors500)
	}
}

// TestChaosDisabledByteIdentical: a server with no injector and one with
// an injector whose probabilities are all zero answer byte-identically —
// the chaos layer off the fault path is transparent, and absent (nil)
// it is not even wired in.
func TestChaosDisabledByteIdentical(t *testing.T) {
	fx := makeFixture(t, "chaos-off")
	plain := server.New(server.Config{EngineWorkers: 2})
	zeroed := server.New(server.Config{EngineWorkers: 2, Chaos: chaos.New(chaos.Config{Seed: 99})})
	tsPlain := httptest.NewServer(plain.Handler())
	tsZero := httptest.NewServer(zeroed.Handler())
	defer tsPlain.Close()
	defer tsZero.Close()
	defer plain.Shutdown(context.Background())
	defer zeroed.Shutdown(context.Background())

	body, _ := json.Marshal(map[string]any{
		"suspects": []map[string]string{{"design": fx.designText, "schedule": fx.scheduleText}},
		"records":  fx.records,
	})
	fetch := func(url string) []byte {
		resp, err := http.Post(url+"/v1/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect = %d", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := fetch(tsPlain.URL), fetch(tsZero.URL)
	if !bytes.Equal(a, b) {
		t.Fatalf("zero-probability chaos layer changed response bytes:\nplain %s\nzero  %s", a, b)
	}
}

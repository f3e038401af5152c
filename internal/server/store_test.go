package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"localwm/internal/chaos"
	"localwm/internal/obs"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// doJSON issues method+path with body and returns status + payload.
func doJSON(t *testing.T, client *http.Client, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func putDesign(t *testing.T, client *http.Client, baseURL, design string) lwmapi.PutDesignResponse {
	t.Helper()
	body, _ := json.Marshal(lwmapi.PutDesignRequest{Design: design})
	resp, data := doJSON(t, client, http.MethodPut, baseURL+"/v1/designs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put design: status %d: %s", resp.StatusCode, data)
	}
	var pr lwmapi.PutDesignResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestDesignRegistryLifecycle drives the /v1/designs surface end to end:
// put, idempotent re-put, canonicalization collapsing textual variants
// onto one ref, get, and the typed error envelope on every failure path.
func TestDesignRegistryLifecycle(t *testing.T) {
	fx := makeFixture(t, "registry")
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	pr := putDesign(t, ts.Client(), ts.URL, fx.designText)
	if !store.ValidRef(pr.Ref) || !pr.Created || pr.Nodes == 0 || pr.Bytes == 0 {
		t.Fatalf("put response: %+v", pr)
	}
	canonical, err := store.Canonicalize(fx.designText)
	if err != nil {
		t.Fatal(err)
	}
	if store.RefOf(canonical) != pr.Ref {
		t.Fatalf("ref %s is not the canonical text's hash", pr.Ref)
	}

	// Idempotent: same design again is a refresh, not a new entry.
	if again := putDesign(t, ts.Client(), ts.URL, fx.designText); again.Ref != pr.Ref || again.Created {
		t.Fatalf("re-put: %+v", again)
	}
	// A textual variant (comments, blank lines) canonicalizes to the
	// same ref: the registry is content-addressed on structure.
	variant := "# a comment\n\n" + fx.designText
	if v := putDesign(t, ts.Client(), ts.URL, variant); v.Ref != pr.Ref || v.Created {
		t.Fatalf("variant put: %+v", v)
	}

	// Get returns the canonical text, which round-trips to the same ref.
	resp, data := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/designs/"+pr.Ref, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get design: status %d: %s", resp.StatusCode, data)
	}
	var gr lwmapi.GetDesignResponse
	if err := json.Unmarshal(data, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Ref != pr.Ref || store.RefOf(gr.Design) != pr.Ref {
		t.Fatalf("get response does not round-trip: ref %s, text hash %s", gr.Ref, store.RefOf(gr.Design))
	}

	// Unknown (but well-formed) ref: typed 404, not retryable.
	ghost := strings.Repeat("ab", 32)
	resp, data = doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/designs/"+ghost, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost ref: status %d: %s", resp.StatusCode, data)
	}
	var envelope lwmapi.Error
	if err := json.Unmarshal(data, &envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != lwmapi.CodeDesignNotFound || envelope.Retryable ||
		envelope.Status != http.StatusNotFound || envelope.LegacyMessage != envelope.Message {
		t.Fatalf("404 envelope: %+v", envelope)
	}

	// Malformed ref: 400, bad_request.
	resp, data = doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/designs/not-hex", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ref: status %d: %s", resp.StatusCode, data)
	}
	// Unparseable design: 400.
	body, _ := json.Marshal(lwmapi.PutDesignRequest{Design: "frobnicate"})
	if resp, data = doJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/designs", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage design: status %d: %s", resp.StatusCode, data)
	}
	// Wrong method: 405 with the full Allow set and the typed code.
	resp, data = doJSON(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/designs", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE: status %d: %s", resp.StatusCode, data)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "PUT") || !strings.Contains(allow, "GET") {
		t.Fatalf("Allow = %q", allow)
	}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Code != lwmapi.CodeMethodNotAllowed {
		t.Fatalf("405 envelope: %s", data)
	}

	// A detect that names an unresolvable ref is the same typed 404 —
	// never a silent fallback to an inline design.
	body, _ = json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{DesignRef: ghost, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detect by ghost ref: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Code != lwmapi.CodeDesignNotFound {
		t.Fatalf("detect 404 envelope: %s", data)
	}

	// The observe middleware wraps the designs route: a client trace ID
	// is echoed back.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/designs/"+pr.Ref, nil)
	req.Header.Set(obs.TraceHeader, "lifecycle-trace")
	tresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if got := tresp.Header.Get(obs.TraceHeader); got != "lifecycle-trace" {
		t.Fatalf("trace header = %q", got)
	}
}

// TestDesignRefByteIdenticalToInline is the registry's core acceptance:
// embed, detect, and verify answer byte-for-byte the same whether the
// design travels inline or as a registry reference.
func TestDesignRefByteIdenticalToInline(t *testing.T) {
	fx := makeFixture(t, "refinline")
	srv := New(Config{EngineWorkers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	ref := putDesign(t, ts.Client(), ts.URL, fx.designText).Ref

	post := func(path string, req any) []byte {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.Client(), ts.URL+path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	params := lwmapi.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4}

	inline := post("/v1/detect", lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	detectByRef := post("/v1/detect", lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{DesignRef: ref, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	if !bytes.Equal(inline, detectByRef) {
		t.Fatalf("detect diverged:\ninline %s\nby ref %s", inline, detectByRef)
	}

	inline = post("/v1/verify", lwmapi.VerifyRequest{
		Design: fx.designText, Schedule: fx.scheduleText, Signature: "refinline",
		MarkParams: params,
	})
	byRef := post("/v1/verify", lwmapi.VerifyRequest{
		DesignRef: ref, Schedule: fx.scheduleText, Signature: "refinline",
		MarkParams: params,
	})
	if !bytes.Equal(inline, byRef) {
		t.Fatalf("verify diverged:\ninline %s\nby ref %s", inline, byRef)
	}

	inline = post("/v1/embed", lwmapi.EmbedRequest{
		Design: fx.designText, Signature: "refinline", MarkParams: params,
	})
	byRef = post("/v1/embed", lwmapi.EmbedRequest{
		DesignRef: ref, Signature: "refinline", MarkParams: params,
	})
	if !bytes.Equal(inline, byRef) {
		t.Fatalf("embed diverged:\ninline %s\nby ref %s", inline, byRef)
	}
	// The registry copy must have stayed pristine: embedding cloned it,
	// so detect by ref still answers the original bytes.
	again := post("/v1/detect", lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{DesignRef: ref, Schedule: fx.scheduleText}},
		Records:  fx.records,
	})
	if !bytes.Equal(detectByRef, again) {
		t.Fatal("embed by ref mutated the registry's resident graph")
	}
}

// TestStoreStatsAndMetrics: registry activity shows up as lwmd_store_*
// series on /v1/stats and on the Prometheus scrape.
func TestStoreStatsAndMetrics(t *testing.T) {
	fx := makeFixture(t, "storemetrics")
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	ref := putDesign(t, ts.Client(), ts.URL, fx.designText).Ref
	if resp, _ := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/designs/"+ref, nil); resp.StatusCode != http.StatusOK {
		t.Fatal("get failed")
	}
	ghost := strings.Repeat("cd", 32)
	if resp, _ := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/designs/"+ghost, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatal("ghost get did not 404")
	}

	st := getStats(t, ts.URL)
	if st.value(t, "lwmd_store_puts_total") != 1 || st.value(t, "lwmd_store_hits_total") < 1 ||
		st.value(t, "lwmd_store_misses_total") < 1 || st.value(t, "lwmd_store_entries") != 1 ||
		st.value(t, "lwmd_store_bytes") == 0 {
		t.Fatalf("store stats: %v", st)
	}
	if ok := st.value(t, "lwmd_requests_total", "endpoint=designs", "result=ok"); ok < 2 {
		t.Fatalf("designs ok = %v, want >= 2", ok)
	}

	resp, data := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	exposition := string(data)
	for _, series := range []string{
		"lwmd_store_hits_total", "lwmd_store_misses_total", "lwmd_store_puts_total",
		"lwmd_store_evictions_total", "lwmd_store_compactions_total",
		"lwmd_store_entries", "lwmd_store_bytes", "lwmd_store_wal_bytes",
	} {
		if !strings.Contains(exposition, series) {
			t.Errorf("scrape missing %s", series)
		}
	}
	if !strings.Contains(exposition, "lwmd_store_puts_total 1") {
		t.Error("lwmd_store_puts_total did not count the put")
	}
	if !strings.Contains(exposition, `lwmd_request_duration_seconds_count{endpoint="designs"}`) &&
		!strings.Contains(exposition, `lwmd_request_duration_seconds_bucket{endpoint="designs"`) {
		t.Error("designs endpoint absent from request-duration series")
	}
}

// TestChaosCoversDesigns: the fault injector wraps the designs route
// like every other /v1 endpoint.
func TestChaosCoversDesigns(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 3, PError: 1.0})
	srv := New(Config{Chaos: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(lwmapi.PutDesignRequest{Design: "node a in\nnode b out\nedge a b data\n"})
	resp, data := doJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/designs", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("chaos PError=1 put: status %d: %s", resp.StatusCode, data)
	}
	if inj.Counters().Errors == 0 {
		t.Fatal("injector did not count the substituted 500")
	}
	// The handler never ran: nothing entered the registry.
	if srv.store.Len() != 0 {
		t.Fatalf("store has %d entries after a fully-faulted put", srv.store.Len())
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/gcolor"
	"localwm/lwmapi"
)

// cdfgText renders the shared benchmark design as canonical cdfg text.
func cdfgText(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, designs.DAConverter()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// gcolorText renders a deterministic coloring instance.
func gcolorText(t *testing.T, seed string) string {
	t.Helper()
	g, err := gcolor.RandomGraph(seed, 32, 15, 100)
	if err != nil {
		t.Fatal(err)
	}
	return gcolor.FormatGraph(g)
}

func decodeAPIError(t *testing.T, data []byte) lwmapi.Error {
	t.Helper()
	var e lwmapi.Error
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error envelope does not decode: %v: %s", err, data)
	}
	return e
}

// TestFamiliesDiscoveryEndpoint: GET /v1/families enumerates the
// registered families with sched as the default; writes are refused.
func TestFamiliesDiscoveryEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, data := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/v1/families", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var lf lwmapi.ListFamiliesResponse
	if err := json.Unmarshal(data, &lf); err != nil {
		t.Fatal(err)
	}
	if lf.Default != lwmapi.FamilySched {
		t.Errorf("default family %q", lf.Default)
	}
	var names []string
	for _, fi := range lf.Families {
		names = append(names, fi.Name)
		if fi.Description == "" || fi.Defaults.N <= 0 {
			t.Errorf("%s: incomplete listing: %+v", fi.Name, fi)
		}
	}
	if got := strings.Join(names, ","); got != "gcolor,sched,tmwm" {
		t.Errorf("families = %s", got)
	}

	resp, data = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/families", []byte("{}"))
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d: %s", resp.StatusCode, data)
	}
	if e := decodeAPIError(t, data); e.Code != lwmapi.CodeMethodNotAllowed {
		t.Errorf("POST error code %q", e.Code)
	}
}

// TestFamilyErrorCodes: an unknown family answers 400/family_unknown on
// every compute endpoint, and a family without robustness batteries
// answers 400/family_unsupported on /v1/robustness — both under the full
// legacy envelope.
func TestFamilyErrorCodes(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, ep := range []string{"/v1/embed", "/v1/detect", "/v1/verify", "/v1/designs", "/v1/robustness"} {
		// Family resolution runs before any other validation, so a bare
		// family field suffices on every endpoint.
		body := []byte(`{"family":"nosuch"}`)
		method := http.MethodPost
		if ep == "/v1/designs" {
			method = http.MethodPut
		}
		resp, data := doJSON(t, ts.Client(), method, ts.URL+ep, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", ep, resp.StatusCode, data)
		}
		e := decodeAPIError(t, data)
		if e.Code != lwmapi.CodeFamilyUnknown {
			t.Errorf("%s: code %q, want %q", ep, e.Code, lwmapi.CodeFamilyUnknown)
		}
		if !strings.Contains(e.Message, "unknown") || !strings.Contains(e.Message, "gcolor") {
			t.Errorf("%s: message should name the registry: %q", ep, e.Message)
		}
		if e.LegacyMessage != e.Message || e.Status != http.StatusBadRequest || e.Retryable {
			t.Errorf("%s: legacy envelope fields wrong: %+v", ep, e)
		}
	}

	design := cdfgText(t)
	for _, fam := range []string{lwmapi.FamilyTmwm, lwmapi.FamilyGcolor} {
		body, _ := json.Marshal(lwmapi.RobustnessRequest{Family: fam, Design: design, Signature: "alice"})
		resp, data := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/robustness", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("robustness %s: status %d: %s", fam, resp.StatusCode, data)
		}
		if e := decodeAPIError(t, data); e.Code != lwmapi.CodeFamilyUnsupported {
			t.Errorf("robustness %s: code %q, want %q", fam, e.Code, lwmapi.CodeFamilyUnsupported)
		}
	}
}

// TestCrossFamilyRefIsolation: refs are family-salted, so the same text
// registered under two families yields distinct refs, and using a ref
// under the wrong family is a definite 400 — never a silent parse of the
// wrong artifact kind.
func TestCrossFamilyRefIsolation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	design := cdfgText(t)

	// Same cdfg text under sched and tmwm: two unrelated refs.
	schedPut := putDesign(t, ts.Client(), ts.URL, design)
	body, _ := json.Marshal(lwmapi.PutDesignRequest{Family: lwmapi.FamilyTmwm, Design: design})
	resp, data := doJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/designs", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tmwm put: status %d: %s", resp.StatusCode, data)
	}
	var tmwmPut lwmapi.PutDesignResponse
	if err := json.Unmarshal(data, &tmwmPut); err != nil {
		t.Fatal(err)
	}
	if tmwmPut.Ref == schedPut.Ref {
		t.Fatal("tmwm and sched refs collide for the same text")
	}
	if tmwmPut.Family != lwmapi.FamilyTmwm {
		t.Errorf("tmwm put echoed family %q", tmwmPut.Family)
	}
	if schedPut.Family != "" {
		t.Errorf("sched put grew a family echo: %q (wire compat)", schedPut.Family)
	}

	// A tmwm ref in a (default) sched detect request: family mismatch 400.
	detBody, _ := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{DesignRef: tmwmPut.Ref, Schedule: "step gm1 1\n"}},
		Records:  []lwmapi.Record{FromFixtureRecord(t)},
	})
	resp, data = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/detect", detBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-family detect: status %d: %s", resp.StatusCode, data)
	}
	e := decodeAPIError(t, data)
	want := `design is registered under family "tmwm", not "sched"`
	if !strings.Contains(e.Message, want) {
		t.Errorf("cross-family detect message %q, want substring %q", e.Message, want)
	}

	// And the sched ref under gcolor embed: mismatch the other way.
	embBody, _ := json.Marshal(lwmapi.EmbedRequest{
		Family: lwmapi.FamilyGcolor, DesignRef: schedPut.Ref, Signature: "alice",
	})
	resp, data = doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/embed", embBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-family embed: status %d: %s", resp.StatusCode, data)
	}
	if e := decodeAPIError(t, data); !strings.Contains(e.Message, `registered under family "sched", not "gcolor"`) {
		t.Errorf("cross-family embed message %q", e.Message)
	}
}

// FromFixtureRecord adapts the sched fixture record for requests that
// only need a syntactically valid record.
func FromFixtureRecord(t *testing.T) lwmapi.Record {
	t.Helper()
	fx := makeFixture(t, "iso")
	return fx.records[0]
}

// TestFamilyServeByteIdentity: tmwm and gcolor served through /v1 answer
// byte-for-byte the same embed, detect, and verify bodies regardless of
// the daemon's engine parallelism — the same determinism contract the
// scheduling family has carried since PR 4.
func TestFamilyServeByteIdentity(t *testing.T) {
	for _, fam := range []string{lwmapi.FamilyTmwm, lwmapi.FamilyGcolor} {
		t.Run(fam, func(t *testing.T) {
			design := cdfgText(t)
			if fam == lwmapi.FamilyGcolor {
				design = gcolorText(t, "serve")
			}

			type answers struct{ embed, detect, verify []byte }
			serve := func(workers int) answers {
				srv := New(Config{EngineWorkers: workers})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				defer srv.Shutdown(context.Background())

				body, _ := json.Marshal(lwmapi.EmbedRequest{
					Family: fam, Design: design, Signature: "alice",
					MarkParams: lwmapi.MarkParams{Workers: workers},
				})
				resp, embedBody := postJSON(t, ts.Client(), ts.URL+"/v1/embed", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("embed: status %d: %s", resp.StatusCode, embedBody)
				}
				var er lwmapi.EmbedResponse
				if err := json.Unmarshal(embedBody, &er); err != nil {
					t.Fatal(err)
				}
				if er.MarkedSolution == "" {
					t.Fatalf("%s embed answered no marked solution", fam)
				}

				body, _ = json.Marshal(lwmapi.DetectRequest{
					Family: fam,
					Suspects: []lwmapi.Suspect{
						{Design: er.MarkedDesign, Schedule: er.MarkedSolution},
					},
					Records: er.Records,
					Workers: workers,
				})
				resp, detectBody := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("detect: status %d: %s", resp.StatusCode, detectBody)
				}
				var dr lwmapi.DetectResponse
				if err := json.Unmarshal(detectBody, &dr); err != nil {
					t.Fatal(err)
				}
				if dr.Detected != len(er.Records) {
					t.Fatalf("detected %d of %d", dr.Detected, len(er.Records))
				}

				body, _ = json.Marshal(lwmapi.VerifyRequest{
					Family: fam, Design: er.MarkedDesign, Schedule: er.MarkedSolution,
					Signature: "alice", MarkParams: lwmapi.MarkParams{Workers: workers},
				})
				resp, verifyBody := postJSON(t, ts.Client(), ts.URL+"/v1/verify", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("verify: status %d: %s", resp.StatusCode, verifyBody)
				}
				var vr lwmapi.VerifyResponse
				if err := json.Unmarshal(verifyBody, &vr); err != nil {
					t.Fatal(err)
				}
				if !vr.Verified {
					t.Fatalf("true claim not verified: %s", verifyBody)
				}
				return answers{embedBody, detectBody, verifyBody}
			}

			one, eight := serve(1), serve(8)
			if !bytes.Equal(one.embed, eight.embed) {
				t.Errorf("embed differs by worker count:\n%s\n%s", one.embed, eight.embed)
			}
			if !bytes.Equal(one.detect, eight.detect) {
				t.Errorf("detect differs by worker count:\n%s\n%s", one.detect, eight.detect)
			}
			if !bytes.Equal(one.verify, eight.verify) {
				t.Errorf("verify differs by worker count:\n%s\n%s", one.verify, eight.verify)
			}
		})
	}
}

// TestFamilyMetricsAndStats: family-dispatched requests show up in the
// per-family series on /metrics and /v1/stats.
func TestFamilyMetricsAndStats(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(lwmapi.EmbedRequest{
		Family: lwmapi.FamilyGcolor, Design: gcolorText(t, "metrics"), Signature: "alice",
	})
	if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/embed", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("embed: status %d: %s", resp.StatusCode, data)
	}
	// One deliberate error for the errors counter.
	body, _ = json.Marshal(lwmapi.EmbedRequest{
		Family: lwmapi.FamilyTmwm, Design: "not a design", Signature: "alice",
	})
	if resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/embed", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad embed: status %d", resp.StatusCode)
	}

	resp, data := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		`lwmd_family_requests_total{endpoint="embed",family="gcolor"} 1`,
		`lwmd_family_errors_total{endpoint="embed",family="tmwm"} 1`,
		`lwmd_family_requests_total{endpoint="detect",family="sched"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	st := getStats(t, ts.URL)
	if got := st.value(t, "lwmd_family_requests_total", "family=gcolor", "endpoint=embed"); got != 1 {
		t.Errorf("gcolor embed requests = %v", got)
	}
	if got := st.value(t, "lwmd_family_errors_total", "family=tmwm", "endpoint=embed"); got != 1 {
		t.Errorf("tmwm embed errors = %v", got)
	}
	if got := st.value(t, "lwmd_family_requests_total", "family=sched", "endpoint=detect"); got != 0 {
		t.Errorf("sched detect requests = %v", got)
	}
}

// TestGcolorDetectNegativeRankRecord: a gcolor record is client input,
// so a negative rank in it is not a daemon fault. /v1/detect answers
// 200; the bad record is not found, and the good record beside it
// answers exactly what it answers alone.
func TestGcolorDetectNegativeRankRecord(t *testing.T) {
	srv := New(Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	body, _ := json.Marshal(lwmapi.EmbedRequest{
		Family: lwmapi.FamilyGcolor, Design: gcolorText(t, "ranks"), Signature: "alice",
	})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/embed", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed: status %d: %s", resp.StatusCode, data)
	}
	var er lwmapi.EmbedResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	good := er.Records[0]
	bad := good
	bad.RankPairs = append([][2]int(nil), good.RankPairs...)
	bad.RankPairs[0] = [2]int{-1, bad.RankPairs[0][1]}

	detect := func(recs ...lwmapi.Record) lwmapi.DetectResponse {
		t.Helper()
		body, _ := json.Marshal(lwmapi.DetectRequest{
			Family:   lwmapi.FamilyGcolor,
			Suspects: []lwmapi.Suspect{{Design: er.MarkedDesign, Schedule: er.MarkedSolution}},
			Records:  recs,
		})
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/detect", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect: status %d: %s", resp.StatusCode, data)
		}
		var dr lwmapi.DetectResponse
		if err := json.Unmarshal(data, &dr); err != nil {
			t.Fatal(err)
		}
		return dr
	}
	alone := detect(good)
	both := detect(good, bad)
	if !alone.Results[0][0].Found {
		t.Fatalf("good record alone not found: %+v", alone.Results[0][0])
	}
	if both.Results[0][0] != alone.Results[0][0] {
		t.Errorf("good record beside a bad one: %+v, alone %+v", both.Results[0][0], alone.Results[0][0])
	}
	if out := both.Results[0][1]; out.Found || out.Error != "" {
		t.Errorf("negative-rank record: %+v, want not found", out)
	}
	if both.Detected != 1 {
		t.Errorf("detected %d, want 1", both.Detected)
	}
}

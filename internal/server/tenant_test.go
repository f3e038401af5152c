package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/tenant"
	"localwm/lwmapi"
)

// Tenant control-plane tests at the HTTP layer: authentication outcomes,
// hot reload mid-flight, rate-limit and quota envelopes, cross-tenant
// isolation of designs and jobs, and the usage surfaces (/v1/stats,
// /metrics). Everything runs through a real httptest server so the
// middleware order under test is the one production requests take.

const (
	aliceKey = "alice-key-0123456789"
	bobKey   = "bob-key-0123456789"
)

// writeTenantsDoc marshals doc to path (creating or overwriting).
func writeTenantsDoc(t *testing.T, path string, doc tenant.File) {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadTenants writes doc to a temp file and loads it, returning the
// registry and the file path (for reload tests that rewrite it).
func loadTenants(t *testing.T, doc tenant.File) (*tenant.Registry, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenantsDoc(t, path, doc)
	reg, err := tenant.Load(path)
	if err != nil {
		t.Fatalf("loading tenants file: %v", err)
	}
	return reg, path
}

// keyedReq performs one request with an optional API key (sent in the
// X-Lwm-Api-Key header unless bearer is set) and drains the body.
func keyedReq(t *testing.T, client *http.Client, method, url, key string, bearer bool, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		if bearer {
			req.Header.Set("Authorization", "Bearer "+key)
		} else {
			req.Header.Set(lwmapi.APIKeyHeader, key)
		}
	}
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

// errCodeOf decodes the typed error envelope's code.
func errCodeOf(t *testing.T, data []byte) string {
	t.Helper()
	var e lwmapi.Error
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("decoding error envelope %q: %v", data, err)
	}
	return e.Code
}

func putDesignBody(t *testing.T, text string) []byte {
	t.Helper()
	body, err := json.Marshal(lwmapi.PutDesignRequest{Design: text})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// secondDesignText renders a design distinct from the fixture's, for
// quota tests that need two different canonical texts.
func secondDesignText(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, designs.FourthOrderParallelIIR()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTenantAuthTable(t *testing.T) {
	fx := makeFixture(t, "alice")
	body := putDesignBody(t, fx.designText)

	cases := []struct {
		name       string
		tenants    bool // run with a tenants registry
		allowAnon  bool // server-side -allow-anonymous
		key        string
		bearer     bool
		wantStatus int
		wantCode   string
	}{
		{name: "no registry, keyless", tenants: false, wantStatus: http.StatusOK},
		{name: "no registry, stray key ignored", tenants: false, key: "whatever", wantStatus: http.StatusOK},
		{name: "missing key", tenants: true, wantStatus: http.StatusUnauthorized, wantCode: lwmapi.CodeTenantUnauthorized},
		{name: "unknown key", tenants: true, key: "not-a-real-key", wantStatus: http.StatusUnauthorized, wantCode: lwmapi.CodeTenantUnauthorized},
		{name: "valid key", tenants: true, key: aliceKey, wantStatus: http.StatusOK},
		{name: "valid key as bearer", tenants: true, key: aliceKey, bearer: true, wantStatus: http.StatusOK},
		{name: "anonymous allowed by flag", tenants: true, allowAnon: true, wantStatus: http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{AllowAnonymous: tc.allowAnon}
			if tc.tenants {
				cfg.Tenants, _ = loadTenants(t, tenant.File{Tenants: []tenant.Tenant{
					{ID: "alice", APIKey: aliceKey},
				}})
			}
			srv := New(cfg)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Shutdown(context.Background())

			resp, data := keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", tc.key, tc.bearer, body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, data)
			}
			if tc.wantCode != "" {
				if code := errCodeOf(t, data); code != tc.wantCode {
					t.Fatalf("error code %q, want %q", code, tc.wantCode)
				}
			}
		})
	}
}

// TestTenantHotReloadMidFlight provisions and revokes keys against a
// live server: a revoked key stops authenticating on the very next
// request, a new key starts working without a restart, and a corrupt
// rewrite keeps the previous tenant set serving.
func TestTenantHotReloadMidFlight(t *testing.T) {
	fx := makeFixture(t, "alice")
	body := putDesignBody(t, fx.designText)

	reg, path := loadTenants(t, tenant.File{Tenants: []tenant.Tenant{
		{ID: "alice", APIKey: aliceKey},
	}})
	srv := New(Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, data := keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", aliceKey, false, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice before reload: status %d: %s", resp.StatusCode, data)
	}

	// Revoke alice, provision bob, reload: the swap is atomic and takes
	// effect for the very next request.
	writeTenantsDoc(t, path, tenant.File{Tenants: []tenant.Tenant{
		{ID: "bob", APIKey: bobKey},
	}})
	if err := reg.Reload(); err != nil {
		t.Fatalf("reload: %v", err)
	}
	resp, data = keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", aliceKey, false, body)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked alice: status %d, want 401: %s", resp.StatusCode, data)
	}
	if code := errCodeOf(t, data); code != lwmapi.CodeTenantUnauthorized {
		t.Fatalf("revoked alice: code %q", code)
	}
	resp, data = keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", bobKey, false, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("new bob: status %d: %s", resp.StatusCode, data)
	}

	// A corrupt rewrite fails the reload but cannot lock anyone out: the
	// previous set stays live.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err == nil {
		t.Fatal("reload of corrupt file succeeded, want error")
	}
	resp, data = keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", bobKey, false, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob after corrupt reload: status %d: %s", resp.StatusCode, data)
	}
}

// TestTenantRateLimited exhausts one tenant's token bucket and asserts
// the tenant-scoped 429 (code tenant_rate_limited, Retry-After from the
// bucket refill — not the queue's hint) while an unlimited tenant on the
// same daemon sails through.
func TestTenantRateLimited(t *testing.T) {
	fx := makeFixture(t, "alice")
	body := putDesignBody(t, fx.designText)

	reg, _ := loadTenants(t, tenant.File{Tenants: []tenant.Tenant{
		// One token, refilled once every 1000s: the second request within
		// the test cannot possibly find the bucket refilled.
		{ID: "alice", APIKey: aliceKey, RatePerSec: 0.001, Burst: 1},
		{ID: "bob", APIKey: bobKey},
	}})
	srv := New(Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, data := keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", aliceKey, false, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice first request: status %d: %s", resp.StatusCode, data)
	}
	resp, data = keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", aliceKey, false, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice second request: status %d, want 429: %s", resp.StatusCode, data)
	}
	if code := errCodeOf(t, data); code != lwmapi.CodeTenantRateLimited {
		t.Fatalf("rate-limit code %q, want %q", code, lwmapi.CodeTenantRateLimited)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("rate-limit Retry-After %q, want positive seconds", ra)
	}

	// Bob shares the daemon but not the bucket.
	for i := 0; i < 3; i++ {
		resp, data = keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", bobKey, false, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bob request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}

	// The rejection is metered per tenant on both usage surfaces.
	mresp, metrics := getBody(t, ts.Client(), ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"# TYPE lwmd_tenant_requests_total counter",
		"# TYPE lwmd_tenant_store_bytes gauge",
		`lwmd_tenant_rate_limited_total{tenant="alice"} 1`,
		`lwmd_tenant_requests_total{tenant="bob"} 3`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestTenantStoreQuotaAndNamespace covers the PUT quota envelope and ref
// isolation: a tenant over its store quota gets 413 tenant_quota_exceeded,
// tenants deriving refs for the same design get different refs, and one
// tenant's ref answers 404 to everyone else — the miss is
// indistinguishable from a never-put design.
func TestTenantStoreQuotaAndNamespace(t *testing.T) {
	fx := makeFixture(t, "alice")

	reg, _ := loadTenants(t, tenant.File{
		AllowAnonymous: true,
		Tenants: []tenant.Tenant{
			{ID: "alice", APIKey: aliceKey, MaxStoreEntries: 1},
			{ID: "bob", APIKey: bobKey},
		},
	})
	srv := New(Config{Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	put := func(key, text string) (*http.Response, []byte) {
		return keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/designs", key, false, putDesignBody(t, text))
	}
	refOf := func(data []byte) string {
		var pr lwmapi.PutDesignResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatalf("decoding put response %q: %v", data, err)
		}
		return pr.Ref
	}

	resp, data := put(aliceKey, fx.designText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice put: status %d: %s", resp.StatusCode, data)
	}
	aliceRef := refOf(data)

	// Second distinct design: over the 1-entry quota.
	resp, data = put(aliceKey, secondDesignText(t))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("alice over-quota put: status %d, want 413: %s", resp.StatusCode, data)
	}
	if code := errCodeOf(t, data); code != lwmapi.CodeTenantQuotaExceeded {
		t.Fatalf("quota code %q, want %q", code, lwmapi.CodeTenantQuotaExceeded)
	}

	// Re-putting the same design is a no-op, not a quota violation.
	resp, data = put(aliceKey, fx.designText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice idempotent re-put: status %d: %s", resp.StatusCode, data)
	}

	// Bob putting the same text derives a different (salted) ref.
	resp, data = put(bobKey, fx.designText)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob put: status %d: %s", resp.StatusCode, data)
	}
	if bobRef := refOf(data); bobRef == aliceRef {
		t.Fatalf("bob's ref equals alice's (%s): refs must be tenant-salted", aliceRef)
	}

	// Alice resolves her own ref; bob and anonymous get a plain 404.
	get := func(key, ref string) (*http.Response, []byte) {
		return keyedReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/designs/"+ref, key, false, nil)
	}
	if resp, data := get(aliceKey, aliceRef); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice get own ref: status %d: %s", resp.StatusCode, data)
	}
	if resp, data := get(bobKey, aliceRef); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bob get alice's ref: status %d, want 404: %s", resp.StatusCode, data)
	}
	if resp, data := get("", aliceRef); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("anonymous get alice's ref: status %d, want 404: %s", resp.StatusCode, data)
	}
}

// TestTenantJobIsolation submits a job as one tenant and asserts every
// job read path — status, result, events — answers 404 job_not_found to
// any other tenant, while the owner reads it normally.
func TestTenantJobIsolation(t *testing.T) {
	fx := makeFixture(t, "alice")
	jobBody, _ := detectJobBody(t, fx, "")

	reg, _ := loadTenants(t, tenant.File{Tenants: []tenant.Tenant{
		{ID: "alice", APIKey: aliceKey},
		{ID: "bob", APIKey: bobKey},
	}})
	srv := New(Config{Tenants: reg, EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp, data := keyedReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", aliceKey, false, jobBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice submit: status %d: %s", resp.StatusCode, data)
	}
	st := decodeStatus(t, data)

	for _, path := range []string{
		"/v1/jobs/" + st.ID,
		"/v1/jobs/" + st.ID + "/result",
		"/v1/jobs/" + st.ID + "/events",
	} {
		resp, data := keyedReq(t, ts.Client(), http.MethodGet, ts.URL+path, bobKey, false, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("bob GET %s: status %d, want 404: %s", path, resp.StatusCode, data)
		}
	}

	resp, data = keyedReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, aliceKey, false, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alice GET own job: status %d: %s", resp.StatusCode, data)
	}

	// /v1/stats surfaces the per-tenant series.
	usage := getStats(t, ts.URL)
	if usage.value(t, "lwmd_tenant_requests_total", "tenant=alice") < 1 ||
		usage.value(t, "lwmd_tenant_jobs_submitted_total", "tenant=alice") != 1 {
		t.Fatalf("alice usage %v / %v, want >=1 request and 1 job",
			usage["lwmd_tenant_requests_total"], usage["lwmd_tenant_jobs_submitted_total"])
	}
}

// TestTenantDetectByteIdenticalToAnonymous is the tenant acceptance
// check: authentication and metering change admission and visibility,
// never the computation — a keyed tenant's /v1/detect response is
// byte-for-byte the anonymous single-tenant daemon's.
func TestTenantDetectByteIdenticalToAnonymous(t *testing.T) {
	fx := makeFixture(t, "alice")
	body, err := json.Marshal(lwmapi.DetectRequest{
		Suspects: []lwmapi.Suspect{{Design: fx.designText, Schedule: fx.scheduleText}},
		Records:  fx.records,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}

	anon := New(Config{EngineWorkers: 4})
	anonTS := httptest.NewServer(anon.Handler())
	defer anonTS.Close()
	defer anon.Shutdown(context.Background())

	reg, _ := loadTenants(t, tenant.File{Tenants: []tenant.Tenant{
		{ID: "alice", APIKey: aliceKey},
	}})
	keyed := New(Config{EngineWorkers: 4, Tenants: reg})
	keyedTS := httptest.NewServer(keyed.Handler())
	defer keyedTS.Close()
	defer keyed.Shutdown(context.Background())

	aresp, abody := postJSON(t, anonTS.Client(), anonTS.URL+"/v1/detect", body)
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous detect: status %d: %s", aresp.StatusCode, abody)
	}
	kresp, kbody := keyedReq(t, keyedTS.Client(), http.MethodPost, keyedTS.URL+"/v1/detect", aliceKey, false, body)
	if kresp.StatusCode != http.StatusOK {
		t.Fatalf("keyed detect: status %d: %s", kresp.StatusCode, kbody)
	}
	if !bytes.Equal(abody, kbody) {
		t.Fatalf("keyed response differs from anonymous:\nanon:  %s\nkeyed: %s", abody, kbody)
	}
}

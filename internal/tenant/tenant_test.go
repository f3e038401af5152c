package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func writeTenants(t *testing.T, path, body string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
}

const twoTenants = `{
  "allow_anonymous": true,
  "tenants": [
    {"id": "acme", "api_key": "acme-key-1234", "rate_per_sec": 2, "burst": 2,
     "max_store_bytes": 1024, "max_store_entries": 2, "max_job_backlog": 1,
     "webhook_secret": "acme-hmac"},
    {"id": "globex", "api_key": "globex-key-1234"}
  ]
}`

func loadTwo(t *testing.T) *Registry {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants(t, path, twoTenants)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestAuthenticate(t *testing.T) {
	r := loadTwo(t)
	if got := r.Authenticate("acme-key-1234"); got == nil || got.ID != "acme" {
		t.Fatalf("acme key: got %v", got)
	}
	if got := r.Authenticate("globex-key-1234"); got == nil || got.ID != "globex" {
		t.Fatalf("globex key: got %v", got)
	}
	for _, bad := range []string{"", "wrong", "acme-key-123", "acme-key-12345", "ACME-KEY-1234"} {
		if got := r.Authenticate(bad); got != nil {
			t.Fatalf("key %q authenticated as %s", bad, got.ID)
		}
	}
	// Cleartext keys must not survive parsing.
	for _, tn := range r.All() {
		if tn.APIKey != "" {
			t.Fatalf("tenant %s retains cleartext api key", tn.ID)
		}
	}
	if !r.AllowAnonymous() {
		t.Fatal("allow_anonymous not honored")
	}
}

func TestByID(t *testing.T) {
	r := loadTwo(t)
	if got := r.ByID("acme"); got == nil || got.WebhookSecret != "acme-hmac" {
		t.Fatalf("ByID(acme) = %v", got)
	}
	if got := r.ByID("nobody"); got != nil {
		t.Fatalf("ByID(nobody) = %v", got)
	}
	if got := r.ByID(""); got != nil {
		t.Fatalf("ByID(\"\") = %v", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"bad id":        `{"tenants":[{"id":"Bad ID","api_key":"long-enough-1"}]}`,
		"reserved id":   `{"tenants":[{"id":"anonymous","api_key":"long-enough-1"}]}`,
		"short key":     `{"tenants":[{"id":"a","api_key":"short"}]}`,
		"dup id":        `{"tenants":[{"id":"a","api_key":"long-enough-1"},{"id":"a","api_key":"long-enough-2"}]}`,
		"dup key":       `{"tenants":[{"id":"a","api_key":"long-enough-1"},{"id":"b","api_key":"long-enough-1"}]}`,
		"negative rate": `{"tenants":[{"id":"a","api_key":"long-enough-1","rate_per_sec":-1}]}`,
		"not json":      `not json`,
	}
	for name, body := range cases {
		if _, err := parseFile([]byte(body)); err == nil {
			t.Errorf("%s: parse accepted %s", name, body)
		}
	}
}

func TestReloadRevokesAndAdds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants(t, path, twoTenants)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Authenticate("acme-key-1234") == nil {
		t.Fatal("acme key should authenticate before reload")
	}

	// Revoke acme, add initech.
	writeTenants(t, path, `{"tenants":[
	  {"id": "globex", "api_key": "globex-key-1234"},
	  {"id": "initech", "api_key": "initech-key-1234"}
	]}`)
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := r.Authenticate("acme-key-1234"); got != nil {
		t.Fatalf("revoked key still authenticates as %s", got.ID)
	}
	if r.Authenticate("initech-key-1234") == nil {
		t.Fatal("new key does not authenticate after reload")
	}
	if r.AllowAnonymous() {
		t.Fatal("allow_anonymous should drop with the new file")
	}
	if r.Reloads() != 2 {
		t.Fatalf("Reloads() = %d, want 2", r.Reloads())
	}
}

func TestReloadKeepsOldSetOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants(t, path, twoTenants)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	writeTenants(t, path, `{broken`)
	if err := r.Reload(); err == nil {
		t.Fatal("Reload accepted broken file")
	}
	if r.Authenticate("acme-key-1234") == nil {
		t.Fatal("previous tenant set lost after failed reload")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestRateLimit(t *testing.T) {
	r := loadTwo(t)
	acme := r.ByID("acme") // rate 2/s, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if ok, _ := r.Allow(acme, now); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := r.Allow(acme, now)
	if ok {
		t.Fatal("third immediate request should be rate-limited")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 500ms]", wait)
	}
	// Half a second refills one token at 2/s.
	if ok, _ := r.Allow(acme, now.Add(500*time.Millisecond)); !ok {
		t.Fatal("token did not accrue after refill interval")
	}

	// Unlimited tenant and anonymous traffic always pass.
	globex := r.ByID("globex")
	for i := 0; i < 100; i++ {
		if ok, _ := r.Allow(globex, now); !ok {
			t.Fatal("unlimited tenant rate-limited")
		}
		if ok, _ := r.Allow(nil, now); !ok {
			t.Fatal("anonymous traffic rate-limited")
		}
	}
}

func TestBucketClockSkew(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBucket(1, 1, now)
	if ok, _ := b.take(now); !ok {
		t.Fatal("full bucket refused")
	}
	// A rewound clock must not mint tokens or corrupt the level.
	if ok, _ := b.take(now.Add(-time.Hour)); ok {
		t.Fatal("rewound clock minted a token")
	}
	if ok, _ := b.take(now.Add(time.Second)); !ok {
		t.Fatal("token did not accrue after skew")
	}
}

func TestReloadPreservesBucketLevel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants(t, path, twoTenants)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	acme := r.ByID("acme")
	now := time.Unix(1000, 0)
	// Drain the burst of 2, then reload with the same rate config: the
	// bucket must stay dry (level survives), not refill to full.
	r.Allow(acme, now)
	r.Allow(acme, now)
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.Allow(r.ByID("acme"), now); ok {
		t.Fatal("reload with unchanged rate config reset the bucket")
	}

	// Changing the rate config rebuilds the bucket full.
	writeTenants(t, path, strings.Replace(twoTenants, `"burst": 2`, `"burst": 3`, 1))
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.Allow(r.ByID("acme"), now); !ok {
		t.Fatal("reload with new rate config should start a fresh full bucket")
	}
}

func TestValidID(t *testing.T) {
	good := []string{"a", "acme", "acme-2", "a_b-c9", strings.Repeat("x", 64)}
	bad := []string{"", "Acme", "a b", "a/b", "a.b", strings.Repeat("x", 65), "ü"}
	for _, id := range good {
		if !ValidID(id) {
			t.Errorf("ValidID(%q) = false", id)
		}
	}
	for _, id := range bad {
		if ValidID(id) {
			t.Errorf("ValidID(%q) = true", id)
		}
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter()
	m.Request("acme")
	m.Request("acme")
	m.RateLimited("acme")
	m.QuotaDenied("acme")
	m.Engine("acme", 120)
	m.JobSubmitted("acme")
	m.Request("") // empty ID folds into anonymous

	snap := m.Snapshot(func(id string) (int64, int64) {
		if id == "acme" {
			return 512, 3
		}
		return 0, 0
	})
	a := snap["acme"]
	if a.Requests != 2 || a.RateLimited != 1 || a.QuotaDenied != 1 ||
		a.EngineMillis != 120 || a.JobsSubmitted != 1 || a.StoreBytes != 512 || a.StoreEntries != 3 {
		t.Fatalf("acme usage = %+v", a)
	}
	if snap[DefaultID].Requests != 1 {
		t.Fatalf("anonymous usage = %+v", snap[DefaultID])
	}

}

// TestConcurrentUse drives Authenticate/Allow/Reload/Meter from many
// goroutines at once; its value is as a tier-2 race-detector target.
func TestConcurrentUse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	writeTenants(t, path, twoTenants)
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter()
	var wg sync.WaitGroup
	start := time.Unix(1000, 0)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tn := r.Authenticate("acme-key-1234")
				if tn == nil {
					t.Error("key failed to authenticate mid-reload")
					return
				}
				now := start.Add(time.Duration(g*200+i) * time.Millisecond)
				if ok, _ := r.Allow(tn, now); ok {
					m.Request(tn.ID)
				} else {
					m.RateLimited(tn.ID)
				}
				if i%50 == 0 {
					if err := r.Reload(); err != nil {
						t.Error(err)
						return
					}
					m.Snapshot(nil)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot(nil)
	if got := snap["acme"].Requests + snap["acme"].RateLimited; got != 8*200 {
		t.Fatalf("metered %d outcomes, want %d", got, 8*200)
	}
}

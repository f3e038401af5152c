package tenant

import "sync"

// Usage is one tenant's running counters. The Meter keeps each tenant's
// Usage behind its own mutex, in a map under the Meter's mutex, and
// mutates it only through Meter methods; Snapshot hands out copies.
type Usage struct {
	// Requests counts requests that passed authentication for this
	// tenant (whatever their eventual result).
	Requests uint64
	// RateLimited counts requests rejected by the tenant's token bucket.
	RateLimited uint64
	// QuotaDenied counts store writes rejected by the tenant's quota.
	QuotaDenied uint64
	// EngineMillis accumulates wall-clock milliseconds spent running the
	// watermarking engine on this tenant's behalf (sync handlers and job
	// attempts both count).
	EngineMillis int64
	// JobsSubmitted counts async jobs accepted for this tenant.
	JobsSubmitted uint64
	// Campaigns counts robustness campaigns run for this tenant (sync
	// answers and job attempts both count).
	Campaigns uint64
	// StoreBytes / StoreEntries are the tenant's current resident
	// footprint in the design registry (gauges, filled in by the store
	// at snapshot time — the Meter itself doesn't track them).
	StoreBytes   int64
	StoreEntries int64
}

// counters is the mutable backing for one tenant's Usage.
type counters struct {
	mu sync.Mutex
	u  Usage
}

// Meter accumulates per-tenant usage. It is independent of the Registry:
// tenants removed from the file keep their counters for the life of the
// process (their history shouldn't vanish from /metrics mid-scrape), and
// the anonymous pseudo-tenant is always present so the lwmd_tenant_*
// metric families exist even on a daemon with no tenants file.
type Meter struct {
	mu  sync.Mutex
	byT map[string]*counters
}

// NewMeter returns a Meter with the anonymous tenant pre-registered.
func NewMeter() *Meter {
	m := &Meter{byT: make(map[string]*counters)}
	m.get(DefaultID)
	return m
}

func (m *Meter) get(id string) *counters {
	if id == "" {
		id = DefaultID
	}
	m.mu.Lock()
	c, ok := m.byT[id]
	if !ok {
		c = &counters{}
		m.byT[id] = c
	}
	m.mu.Unlock()
	return c
}

// Request records one authenticated (or anonymous) request.
func (m *Meter) Request(id string) {
	c := m.get(id)
	c.mu.Lock()
	c.u.Requests++
	c.mu.Unlock()
}

// RateLimited records a token-bucket rejection.
func (m *Meter) RateLimited(id string) {
	c := m.get(id)
	c.mu.Lock()
	c.u.RateLimited++
	c.mu.Unlock()
}

// QuotaDenied records a store-quota rejection.
func (m *Meter) QuotaDenied(id string) {
	c := m.get(id)
	c.mu.Lock()
	c.u.QuotaDenied++
	c.mu.Unlock()
}

// Engine adds engine wall-clock time in milliseconds.
func (m *Meter) Engine(id string, millis int64) {
	if millis < 0 {
		millis = 0
	}
	c := m.get(id)
	c.mu.Lock()
	c.u.EngineMillis += millis
	c.mu.Unlock()
}

// JobSubmitted records one accepted async job.
func (m *Meter) JobSubmitted(id string) {
	c := m.get(id)
	c.mu.Lock()
	c.u.JobsSubmitted++
	c.mu.Unlock()
}

// Campaign records one robustness campaign run.
func (m *Meter) Campaign(id string) {
	c := m.get(id)
	c.mu.Lock()
	c.u.Campaigns++
	c.mu.Unlock()
}

// StoreUsage reports a tenant's current design-registry footprint; the
// Meter calls it at snapshot time so gauges are always fresh.
type StoreUsage func(id string) (bytes, entries int64)

// Snapshot returns every tenant's usage keyed by tenant ID, with store
// gauges filled in via storeOf (may be nil).
func (m *Meter) Snapshot(storeOf StoreUsage) map[string]Usage {
	m.mu.Lock()
	ids := make([]string, 0, len(m.byT))
	for id := range m.byT {
		ids = append(ids, id)
	}
	m.mu.Unlock()
	out := make(map[string]Usage, len(ids))
	for _, id := range ids {
		c := m.get(id)
		c.mu.Lock()
		u := c.u
		c.mu.Unlock()
		if storeOf != nil {
			u.StoreBytes, u.StoreEntries = storeOf(id)
		}
		out[id] = u
	}
	return out
}

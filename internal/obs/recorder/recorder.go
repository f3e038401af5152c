// Package recorder is the daemon's flight recorder: a bounded,
// in-memory ring of completed request traces selected by tail-based
// sampling. The keep decision is made when a request finishes, with the
// full outcome in hand — errors and throttles are always retained, the
// slowest requests per endpoint within a rolling window are always
// retained, and the unremarkable remainder is sampled probabilistically
// under a seeded PRNG so tests can pin the exact keep sequence.
//
// A nil *Recorder is valid and inert (every method no-ops), preserving
// the obs-layer contract that observability costs nothing when off.
package recorder

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"localwm/internal/obs"
)

// Keep reasons attached to retained entries; the exposition surface
// (lwmd_trace_kept_total{reason=...}) and /v1/traces filters use them.
const (
	KeepError   = "error"   // non-2xx result — always kept
	KeepSlow    = "slow"    // in the slowest-N for its endpoint's window
	KeepSampled = "sampled" // won the probabilistic tail sample
)

// Config bounds the recorder.
type Config struct {
	// Capacity is the maximum number of retained traces; when full, the
	// oldest retained trace is evicted (FIFO). Default 512.
	Capacity int
	// SampleRate is the probability in [0,1] that an unremarkable
	// (non-error, non-slow) trace is kept. Default 0.05.
	SampleRate float64
	// SlowestN traces per endpoint per Window are always kept. Default 5.
	SlowestN int
	// Window is the rolling window for the slowest-N policy. Default 1m.
	Window time.Duration
	// Seed seeds the sampling PRNG; a fixed seed makes the keep sequence
	// deterministic for a deterministic request sequence. Default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 512
	}
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	if c.SampleRate == 0 {
		c.SampleRate = 0.05
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.SlowestN <= 0 {
		c.SlowestN = 5
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Entry is one retained request: identity, outcome, stage timings, and
// the full span tree. It is the unit served by GET /v1/traces/{id}.
type Entry struct {
	ID             string            `json:"id"`
	Endpoint       string            `json:"endpoint"`
	Result         string            `json:"result"`
	Status         int               `json:"status"`
	Tenant         string            `json:"tenant,omitempty"`
	DesignRef      string            `json:"design_ref,omitempty"`
	Error          string            `json:"error,omitempty"`
	StartUnixNano  int64             `json:"start_unix_nano"`
	DurationNanos  int64             `json:"duration_nanos"`
	QueueWaitNanos int64             `json:"queue_wait_nanos"`
	RunNanos       int64             `json:"run_nanos"`
	KeepReason     string            `json:"keep_reason"`
	Spans          []obs.SpanView    `json:"spans,omitempty"`
	EngineCounters map[string]uint64 `json:"engine_counters,omitempty"`
}

// end returns the entry's completion time — the recorder's clock for
// window pruning, so replayed deterministic sequences sample the same.
func (e *Entry) end() time.Time {
	return time.Unix(0, e.StartUnixNano+e.DurationNanos)
}

// slowSlot is one top-N occupant: how slow, and when it leaves the window.
type slowSlot struct {
	d      time.Duration
	expiry time.Time
}

// Counters is a consistent snapshot of the recorder's activity,
// exported as the lwmd_trace_* metric families.
type Counters struct {
	Recorded    uint64 // completed requests offered to the recorder
	Kept        uint64 // retained (any reason)
	KeptError   uint64
	KeptSlow    uint64
	KeptSampled uint64
	Dropped     uint64 // sampled out
	Evicted     uint64 // retained then pushed out by the ring bound
	Resident    int    // currently retained
}

// Recorder retains tail-sampled traces in a bounded ring.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	entries map[string]*Entry
	ring    []string // retained IDs in insertion order; fixed capacity
	next    int      // slot the next insert overwrites
	size    int
	slow    map[string][]slowSlot // endpoint -> current top-N window
	ctr     Counters
}

// New builds a recorder under cfg (zero fields take defaults).
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		entries: make(map[string]*Entry, cfg.Capacity),
		ring:    make([]string, cfg.Capacity),
		slow:    make(map[string][]slowSlot),
	}
}

// errorResult reports whether an outcome must always be retained: any
// HTTP status >= 400 (covers 5xx, 429 throttles, auth failures) or a
// result class that denotes a failed request even without a status.
func errorResult(result string, status int) bool {
	if status >= 400 {
		return true
	}
	switch result {
	case "error", "panic", "timeout", "rejected", "drained", "rate_limited", "unauthorized":
		return true
	}
	return false
}

// Record offers a completed request to the recorder and reports whether
// it was retained and why. Safe on nil (never keeps).
func (r *Recorder) Record(e Entry) (kept bool, reason string) {
	if r == nil {
		return false, ""
	}
	d := time.Duration(e.DurationNanos)
	now := e.end()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctr.Recorded++

	switch {
	case errorResult(e.Result, e.Status):
		reason = KeepError
		r.ctr.KeptError++
	case r.isSlowLocked(e.Endpoint, d, now):
		reason = KeepSlow
		r.ctr.KeptSlow++
	case r.rng.Float64() < r.cfg.SampleRate:
		reason = KeepSampled
		r.ctr.KeptSampled++
	default:
		r.ctr.Dropped++
		return false, ""
	}
	r.ctr.Kept++
	e.KeepReason = reason
	r.insertLocked(&e)
	return true, reason
}

// isSlowLocked applies the slowest-N-per-endpoint-per-window policy and
// claims a slot when d qualifies. Expired slots are pruned first, so a
// quiet endpoint's window drains and fresh slow requests always qualify.
func (r *Recorder) isSlowLocked(endpoint string, d time.Duration, now time.Time) bool {
	slots := r.slow[endpoint]
	live := slots[:0]
	for _, s := range slots {
		if s.expiry.After(now) {
			live = append(live, s)
		}
	}
	if len(live) < r.cfg.SlowestN {
		r.slow[endpoint] = append(live, slowSlot{d: d, expiry: now.Add(r.cfg.Window)})
		return true
	}
	// Full window: displace the least-slow occupant if d beats it.
	minIdx := 0
	for i, s := range live {
		if s.d < live[minIdx].d {
			minIdx = i
		}
	}
	if d <= live[minIdx].d {
		r.slow[endpoint] = live
		return false
	}
	live[minIdx] = slowSlot{d: d, expiry: now.Add(r.cfg.Window)}
	r.slow[endpoint] = live
	return true
}

// insertLocked stores e, evicting the oldest retained entry when the
// ring is full. A duplicate ID overwrites in place without consuming a
// ring slot twice.
func (r *Recorder) insertLocked(e *Entry) {
	if _, ok := r.entries[e.ID]; ok {
		r.entries[e.ID] = e
		return
	}
	if r.size == len(r.ring) {
		old := r.ring[r.next]
		delete(r.entries, old)
		r.ctr.Evicted++
		r.size--
	}
	r.ring[r.next] = e.ID
	r.next = (r.next + 1) % len(r.ring)
	r.size++
	r.entries[e.ID] = e
}

// Get returns a copy of the retained entry with the given ID.
func (r *Recorder) Get(id string) (Entry, bool) {
	if r == nil {
		return Entry{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Filter narrows List. Zero fields match everything.
type Filter struct {
	Endpoint string // exact endpoint name
	Result   string // exact result class
	// Tenant filters by exact tenant ID. An empty Tenant matches all
	// entries unless HasTenant is set.
	Tenant string
	// HasTenant makes Tenant an exact match even when it is empty — the
	// tenanted daemon's anonymous namespace, which must not see keyed
	// tenants' traces.
	HasTenant   bool
	KeepReason  string        // error | slow | sampled
	MinDuration time.Duration // entries at least this slow
	Limit       int           // max entries returned; <=0 means 100
}

// List returns retained entries matching f, newest first. Span trees
// are omitted from list results (Get serves the full entry).
func (r *Recorder) List(f Filter) []Entry {
	if r == nil {
		return nil
	}
	limit := f.Limit
	if limit <= 0 {
		limit = 100
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, 0, min(limit, r.size))
	// Walk the ring newest-to-oldest: the slot before next is newest.
	for i := 0; i < r.size && len(out) < limit; i++ {
		idx := (r.next - 1 - i + 2*len(r.ring)) % len(r.ring)
		e := r.entries[r.ring[idx]]
		if e == nil {
			continue // slot belonged to an evicted generation
		}
		if f.Endpoint != "" && e.Endpoint != f.Endpoint {
			continue
		}
		if f.Result != "" && e.Result != f.Result {
			continue
		}
		if (f.Tenant != "" || f.HasTenant) && e.Tenant != f.Tenant {
			continue
		}
		if f.KeepReason != "" && e.KeepReason != f.KeepReason {
			continue
		}
		if f.MinDuration > 0 && time.Duration(e.DurationNanos) < f.MinDuration {
			continue
		}
		c := *e
		c.Spans = nil
		c.EngineCounters = nil
		out = append(out, c)
	}
	// Ties inside the same nanosecond keep ring order; the sort keeps
	// the newest-first contract strict when clocks jump.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].StartUnixNano+out[i].DurationNanos > out[j].StartUnixNano+out[j].DurationNanos
	})
	return out
}

// Counters returns a snapshot of the recorder's activity counters.
// Zero value on nil.
func (r *Recorder) Counters() Counters {
	if r == nil {
		return Counters{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctr
	c.Resident = r.size
	return c
}

// Capacity returns the configured ring capacity (0 on nil).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return r.cfg.Capacity
}

// ValidID reports whether id is plausible as a trace ID — a defensive
// bound before map lookup on an attacker-supplied path segment.
func ValidID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	return !strings.ContainsAny(id, " \t\n/")
}

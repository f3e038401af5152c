package recorder

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"localwm/internal/obs"
)

// entryAt builds a minimal ok-result entry completing at start+d.
func entryAt(id, endpoint string, start time.Time, d time.Duration) Entry {
	return Entry{
		ID:            id,
		Endpoint:      endpoint,
		Result:        "ok",
		Status:        200,
		StartUnixNano: start.UnixNano(),
		DurationNanos: int64(d),
	}
}

func TestErrorsAlwaysKept(t *testing.T) {
	// SampleRate is driven to the floor and SlowestN to 1; errors must
	// still be retained every single time, regardless of sampling.
	r := New(Config{Capacity: 64, SampleRate: 1e-12, SlowestN: 1, Seed: 7})
	start := time.Unix(1700000000, 0)
	for i := 0; i < 50; i++ {
		e := entryAt(fmt.Sprintf("err-%d", i), "detect", start.Add(time.Duration(i)*time.Second), time.Millisecond)
		e.Result = "error"
		e.Status = 500
		kept, reason := r.Record(e)
		if !kept || reason != KeepError {
			t.Fatalf("error entry %d: kept=%v reason=%q, want kept with %q", i, kept, reason, KeepError)
		}
	}
	if got := r.Counters().KeptError; got != 50 {
		t.Fatalf("KeptError = %d, want 50", got)
	}
	// 429s and 4xx are errors too, even with result "ok"-ish classes.
	e := entryAt("throttled", "embed", start, time.Millisecond)
	e.Result = "rate_limited"
	e.Status = 429
	if kept, reason := r.Record(e); !kept || reason != KeepError {
		t.Fatalf("429 entry: kept=%v reason=%q", kept, reason)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	// Capacity 3, everything kept (errors): inserting 5 entries must
	// evict the two oldest, in insertion order.
	r := New(Config{Capacity: 3, Seed: 1})
	start := time.Unix(1700000000, 0)
	for i := 0; i < 5; i++ {
		e := entryAt(fmt.Sprintf("t-%d", i), "embed", start.Add(time.Duration(i)*time.Second), time.Millisecond)
		e.Result = "error"
		e.Status = 500
		r.Record(e)
	}
	for _, id := range []string{"t-0", "t-1"} {
		if _, ok := r.Get(id); ok {
			t.Errorf("%s still resident, want evicted", id)
		}
	}
	for _, id := range []string{"t-2", "t-3", "t-4"} {
		if _, ok := r.Get(id); !ok {
			t.Errorf("%s missing, want resident", id)
		}
	}
	c := r.Counters()
	if c.Evicted != 2 || c.Resident != 3 {
		t.Fatalf("counters = %+v, want Evicted=2 Resident=3", c)
	}
	// List is newest first.
	got := r.List(Filter{})
	if len(got) != 3 || got[0].ID != "t-4" || got[2].ID != "t-2" {
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.ID
		}
		t.Fatalf("List order = %v, want [t-4 t-3 t-2]", ids)
	}
}

func TestSlowestNPerWindow(t *testing.T) {
	r := New(Config{Capacity: 64, SampleRate: 1e-12, SlowestN: 2, Window: 10 * time.Second, Seed: 3})
	start := time.Unix(1700000000, 0)
	// First two requests on an endpoint always claim slow slots.
	for i, d := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond} {
		kept, reason := r.Record(entryAt(fmt.Sprintf("w-%d", i), "embed", start, d))
		if !kept || reason != KeepSlow {
			t.Fatalf("warmup %d: kept=%v reason=%q", i, kept, reason)
		}
	}
	// Faster than both occupants: not slow (and sampled out at ~0 rate).
	if kept, _ := r.Record(entryAt("fast", "embed", start.Add(time.Second), time.Millisecond)); kept {
		t.Fatal("fast entry kept, want dropped")
	}
	// Slower than the least-slow occupant: displaces it.
	if kept, reason := r.Record(entryAt("slower", "embed", start.Add(2*time.Second), 7*time.Millisecond)); !kept || reason != KeepSlow {
		t.Fatalf("slower entry: kept=%v reason=%q", kept, reason)
	}
	// After the window expires the slots drain; a middling request
	// qualifies again.
	if kept, reason := r.Record(entryAt("later", "embed", start.Add(30*time.Second), 2*time.Millisecond)); !kept || reason != KeepSlow {
		t.Fatalf("post-window entry: kept=%v reason=%q", kept, reason)
	}
	// A different endpoint has its own window.
	if kept, reason := r.Record(entryAt("other", "verify", start, time.Microsecond)); !kept || reason != KeepSlow {
		t.Fatalf("other-endpoint entry: kept=%v reason=%q", kept, reason)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	// Two recorders with the same seed fed the same unremarkable
	// sequence must make identical keep decisions; a different seed
	// must diverge somewhere on a long enough sequence.
	run := func(seed int64) []bool {
		r := New(Config{Capacity: 1024, SampleRate: 0.3, SlowestN: 1, Seed: seed})
		start := time.Unix(1700000000, 0)
		// Burn the slow slot so the rest is pure sampling.
		r.Record(entryAt("burn", "embed", start, time.Hour))
		decisions := make([]bool, 200)
		for i := range decisions {
			kept, _ := r.Record(entryAt(fmt.Sprintf("s-%d", i), "embed",
				start.Add(time.Duration(i)*time.Millisecond), time.Microsecond))
			decisions[i] = kept
		}
		return decisions
	}
	a, b, c := run(42), run(42), run(43)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different keep sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical keep sequences (suspicious)")
	}
	var kept int
	for _, k := range a {
		if k {
			kept++
		}
	}
	if kept == 0 || kept == len(a) {
		t.Fatalf("kept %d of %d at rate 0.3, want a proper sample", kept, len(a))
	}
}

func TestConcurrentRecordAndQuery(t *testing.T) {
	r := New(Config{Capacity: 32, SampleRate: 0.5, Seed: 9})
	start := time.Unix(1700000000, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := entryAt(fmt.Sprintf("c-%d-%d", g, i), "detect",
					start.Add(time.Duration(i)*time.Millisecond), time.Duration(i)*time.Microsecond)
				if i%7 == 0 {
					e.Result = "error"
					e.Status = 503
				}
				r.Record(e)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.List(Filter{Result: "error", Limit: 10})
				r.Get("c-0-0")
				r.Counters()
			}
		}()
	}
	wg.Wait()
	if c := r.Counters(); c.Resident > 32 {
		t.Fatalf("resident %d exceeds capacity 32", c.Resident)
	}
}

func TestExemplarTraceIDRoundTrip(t *testing.T) {
	// The exemplar contract: every trace_id on the exposition page
	// resolves through the recorder. Record a mix, attach exemplars only
	// for retained traces, render, and look every exemplar ID back up.
	r := New(Config{Capacity: 64, SampleRate: 1e-12, SlowestN: 2, Seed: 5})
	reg := obs.NewRegistry()
	hist := reg.Histogram("lwmd_request_duration_seconds", "latency", nil, map[string]string{"endpoint": "embed"})
	start := time.Unix(1700000000, 0)
	durs := []time.Duration{2 * time.Millisecond, 40 * time.Millisecond, 800 * time.Millisecond, 3 * time.Second}
	for i, d := range durs {
		e := entryAt(fmt.Sprintf("x-%d", i), "embed", start.Add(time.Duration(i)*time.Second), d)
		if i == 3 {
			e.Result = "error"
			e.Status = 500
		}
		hist.Observe(d)
		if kept, _ := r.Record(e); kept {
			hist.SetExemplar(d, e.ID, e.end())
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	re := regexp.MustCompile(`# \{trace_id="([^"]+)"\} `)
	matches := re.FindAllStringSubmatch(page, -1)
	if len(matches) == 0 {
		t.Fatalf("no exemplars rendered:\n%s", page)
	}
	for _, m := range matches {
		if _, ok := r.Get(m[1]); !ok {
			t.Errorf("exemplar trace %q does not resolve in the recorder", m[1])
		}
	}
	// A histogram with no exemplars set renders the legacy format with
	// no trailing annotation.
	plain := obs.NewRegistry()
	plain.Histogram("h", "no exemplars", nil, nil).Observe(time.Millisecond)
	b.Reset()
	if err := plain.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "_bucket") && strings.Contains(line, "#") {
			t.Fatalf("exemplar-free bucket line carries annotation: %q", line)
		}
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if kept, _ := r.Record(Entry{ID: "x", Result: "error", Status: 500}); kept {
		t.Fatal("nil recorder kept an entry")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil recorder resolved an entry")
	}
	if got := r.List(Filter{}); got != nil {
		t.Fatal("nil recorder listed entries")
	}
	if c := r.Counters(); c != (Counters{}) {
		t.Fatal("nil recorder has nonzero counters")
	}
}

func TestValidID(t *testing.T) {
	for _, ok := range []string{"abc123-00000001", "job-42"} {
		if !ValidID(ok) {
			t.Errorf("ValidID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a/b", "a b", strings.Repeat("x", 200)} {
		if ValidID(bad) {
			t.Errorf("ValidID(%q) = true", bad)
		}
	}
}

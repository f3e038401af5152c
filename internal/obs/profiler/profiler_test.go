package profiler

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func newTest(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.CPUDuration == 0 {
		cfg.CPUDuration = 50 * time.Millisecond
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCaptureCycleWritesAllKinds(t *testing.T) {
	p := newTest(t, Config{Retain: 4})
	p.CaptureOnce("test")
	snaps, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, s := range snaps {
		got[s.Kind]++
		if s.SizeBytes == 0 {
			t.Errorf("%s snapshot is empty", s.Name)
		}
		if !ValidName(s.Name) {
			t.Errorf("capture produced an invalid name %q", s.Name)
		}
	}
	for _, k := range Kinds {
		if got[k] != 1 {
			t.Errorf("kind %s: %d snapshots, want 1", k, got[k])
		}
	}
	c := p.Counters()
	if c.Captures != 3 || c.Cycles != 1 || c.Snapshots != 3 || c.Bytes == 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	p := newTest(t, Config{Retain: 2})
	for i := 0; i < 3; i++ {
		p.CaptureOnce("test")
		time.Sleep(2 * time.Millisecond) // distinct stamps
	}
	snaps, err := p.List()
	if err != nil {
		t.Fatal(err)
	}
	byKind := make(map[string][]Snapshot)
	for _, s := range snaps {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	for _, k := range Kinds {
		if len(byKind[k]) != 2 {
			t.Errorf("kind %s retained %d, want 2", k, len(byKind[k]))
		}
	}
	if c := p.Counters(); c.Pruned != 3 {
		t.Errorf("Pruned = %d, want 3 (one per kind)", c.Pruned)
	}
	// Newest-first ordering within the listing.
	for _, list := range byKind {
		if len(list) == 2 && stampOf(list[0].Name) < stampOf(list[1].Name) {
			t.Errorf("listing not newest-first: %s before %s", list[0].Name, list[1].Name)
		}
	}
}

func TestTriggerDebounce(t *testing.T) {
	p := newTest(t, Config{Debounce: time.Hour})
	if !p.Trigger("slo") {
		t.Fatal("first trigger rejected")
	}
	if p.Trigger("slo") {
		t.Fatal("second trigger inside the debounce window accepted")
	}
	// Close joins the async capture, so TempDir cleanup doesn't race it.
	p.Close()
	if c := p.Counters(); c.Triggered != 1 {
		t.Fatalf("Triggered = %d, want 1", c.Triggered)
	}
}

// TestCloseJoinsTriggeredCapture closes straight after a trigger, before
// the capture goroutine has had a chance to start: once Close returns the
// capture must be finished, with nothing more written into Dir and no temp
// file left behind, and further triggers must be refused.
func TestCloseJoinsTriggeredCapture(t *testing.T) {
	p := newTest(t, Config{CPUDuration: 20 * time.Millisecond})
	if !p.Trigger("slo") {
		t.Fatal("trigger rejected")
	}
	p.Close()
	listDir := func() []string {
		entries, err := os.ReadDir(p.cfg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if !ValidName(e.Name()) {
				t.Errorf("%s left in Dir after Close", e.Name())
			}
			names = append(names, e.Name())
		}
		return names
	}
	atClose := listDir()
	if len(atClose) != len(Kinds) {
		t.Fatalf("Dir holds %v after Close, want one snapshot per kind", atClose)
	}
	if p.Trigger("late") {
		t.Fatal("trigger after Close accepted")
	}
	time.Sleep(60 * time.Millisecond)
	if later := listDir(); !reflect.DeepEqual(later, atClose) {
		t.Fatalf("Dir changed after Close: %v, then %v", atClose, later)
	}
	p.Close() // idempotent
}

func TestReadRejectsPathEscape(t *testing.T) {
	p := newTest(t, Config{})
	p.CaptureOnce("test")
	snaps, _ := p.List()
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	data, err := p.Read(snaps[0].Name)
	if err != nil || len(data) == 0 {
		t.Fatalf("Read(%q): %v (%d bytes)", snaps[0].Name, err, len(data))
	}
	for _, bad := range []string{"../etc/passwd", "cpu-../x.pprof", "cpu-12a.pprof", "heap.pprof", "", "cpu-1.pb"} {
		if _, err := p.Read(bad); err == nil {
			t.Errorf("Read(%q) succeeded, want rejection", bad)
		}
	}
	// A valid-looking but absent name is a clean not-found, and the
	// probe must not have created anything.
	if _, err := p.Read("cpu-1.pprof"); err == nil {
		t.Error("Read of absent snapshot succeeded")
	}
	if _, err := filepath.Glob(filepath.Join(p.cfg.Dir, "*")); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicLoopStartClose(t *testing.T) {
	p := newTest(t, Config{Interval: 30 * time.Millisecond, CPUDuration: 5 * time.Millisecond})
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.Counters().Cycles >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.Close()
	if c := p.Counters(); c.Cycles == 0 {
		t.Fatal("periodic loop never completed a cycle")
	}
	// Snapshots are real pprof files: gzip or uncompressed protobuf,
	// never empty, never HTML.
	snaps, _ := p.List()
	for _, s := range snaps {
		data, err := p.Read(s.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			continue // gzip-wrapped protobuf, the usual shape
		}
		if bytes.HasPrefix(data, []byte("<")) {
			t.Fatalf("%s looks like HTML, not a pprof profile", s.Name)
		}
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	p.Start()
	p.Close()
	p.CaptureOnce("x")
	if p.Trigger("x") {
		t.Fatal("nil profiler accepted a trigger")
	}
	if snaps, err := p.List(); err != nil || snaps != nil {
		t.Fatal("nil profiler listed snapshots")
	}
	if _, err := p.Read("cpu-1.pprof"); err == nil {
		t.Fatal("nil profiler read a snapshot")
	}
	if c := p.Counters(); c != (Counters{}) {
		t.Fatal("nil profiler has counters")
	}
}

// TestCountersAndTriggerDuringCPUSample: while a capture cycle holds its
// CPU sample open, Counters (every /metrics scrape) and Trigger (the
// request path of a request slower than the SLO) return at once instead
// of waiting the sample out.
func TestCountersAndTriggerDuringCPUSample(t *testing.T) {
	p := newTest(t, Config{CPUDuration: 1500 * time.Millisecond, Debounce: time.Hour})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.CaptureOnce("test")
	}()
	// The cycle's CPU sample writes into a temp file until it ends.
	deadline := time.Now().Add(time.Second)
	for {
		tmps, err := filepath.Glob(filepath.Join(p.cfg.Dir, ".cpu-*.tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tmps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the CPU sample did not start")
		}
		time.Sleep(time.Millisecond)
	}
	for name, call := range map[string]func(){
		"Counters": func() { p.Counters() },
		"Trigger": func() {
			if !p.Trigger("slo") {
				t.Error("trigger rejected")
			}
		},
	} {
		start := time.Now()
		call()
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s took %v during a capture's CPU sample", name, d)
		}
	}
	// Close cuts both samples short and joins the triggered capture.
	p.Close()
	<-done
	if c := p.Counters(); c.Cycles != 2 || c.Triggered != 1 {
		t.Fatalf("counters %+v, want 2 cycles, 1 triggered", c)
	}
}

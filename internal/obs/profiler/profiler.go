// Package profiler is lwmd's continuous-profiling observatory: it
// captures CPU, heap, and allocs pprof snapshots into a
// retention-bounded directory, on a fixed interval and on demand when
// the server sees a request slower than its SLO (lwmd -slo-ms), at most
// once per debounce window. Snapshots are ordinary pprof protobuf files
// — `go tool pprof` reads them directly, and `lwm prof` lists, fetches,
// and diffs them through the daemon without external tooling.
//
// A nil *Profiler is valid and inert: every method no-ops, so the
// server wires it unconditionally and pays nothing when -prof-dir is
// unset.
package profiler

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kinds of snapshot the observatory captures each cycle.
var Kinds = []string{"cpu", "heap", "allocs"}

// Config bounds the profiler.
type Config struct {
	// Dir receives the snapshot files. Created if missing. Required.
	Dir string
	// Interval between periodic capture cycles. 0 disables the periodic
	// loop; on-demand (SLO-triggered) capture still works.
	Interval time.Duration
	// Retain is the number of newest snapshots kept per kind. Default 4.
	Retain int
	// CPUDuration is how long each CPU profile samples. Default 2s,
	// clamped to Interval/2 when a periodic loop is configured.
	CPUDuration time.Duration
	// Debounce is the minimum gap between on-demand captures, so a
	// sustained SLO breach produces one snapshot, not a snapshot per
	// request. Default 1m.
	Debounce time.Duration
	// Logger receives capture/prune events. Nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Retain <= 0 {
		c.Retain = 4
	}
	if c.CPUDuration <= 0 {
		c.CPUDuration = 2 * time.Second
	}
	if c.Interval > 0 && c.CPUDuration > c.Interval/2 {
		c.CPUDuration = c.Interval / 2
	}
	if c.Debounce <= 0 {
		c.Debounce = time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	return c
}

// Counters is a snapshot of the profiler's activity, exported as the
// lwmd_prof_* metric families.
type Counters struct {
	Captures  uint64 // snapshot files written
	Cycles    uint64 // capture cycles completed (periodic + on-demand)
	Triggered uint64 // on-demand cycles accepted (SLO breaches, post-debounce)
	Errors    uint64 // failed capture attempts
	Pruned    uint64 // snapshot files removed by retention
	Snapshots int    // files currently resident
	Bytes     int64  // bytes currently resident
}

// Snapshot describes one resident pprof file.
type Snapshot struct {
	Name      string // file name within Dir, e.g. cpu-1700000000123456789.pprof
	Kind      string // cpu | heap | allocs
	SizeBytes int64
	ModTime   time.Time
}

// Profiler captures and retains pprof snapshots.
type Profiler struct {
	cfg Config

	// cycle serializes capture cycles (CPU profiling is process-global)
	// and is held through a cycle's CPU sample.
	cycle sync.Mutex

	// mu guards the fields below. It is never held across a sample, so
	// Counters (every /metrics scrape) and Trigger (the request path)
	// never wait out a capture.
	mu          sync.Mutex
	lastTrigger time.Time
	ctr         Counters
	closed      bool // set by Close; no capture is started after it

	// running counts the periodic loop and every triggered capture that
	// has been started; Close waits for all of them.
	running   sync.WaitGroup
	stop      chan struct{}
	closeOnce sync.Once
}

// New builds a profiler over cfg and creates cfg.Dir.
func New(cfg Config) (*Profiler, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profiler: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profiler: %w", err)
	}
	return &Profiler{cfg: cfg, stop: make(chan struct{})}, nil
}

// Start launches the periodic capture loop (no-op when Interval is 0 or
// p is nil). Call Close to stop it.
func (p *Profiler) Start() {
	if p == nil || p.cfg.Interval <= 0 {
		return
	}
	p.running.Add(1)
	go func() {
		defer p.running.Done()
		t := time.NewTicker(p.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.capture("periodic")
			}
		}
	}()
}

// Close stops the periodic loop and waits for every capture started
// before it, so nothing writes into Dir once Close returns. Trigger
// starts no capture after Close. Idempotent.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		close(p.stop) // cuts an in-flight CPU sample short
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
	})
	p.running.Wait()
}

// Trigger requests an on-demand capture cycle (SLO breach). The capture
// runs asynchronously; requests inside the debounce window are dropped.
// Reports whether a cycle was actually started. Safe on nil.
func (p *Profiler) Trigger(reason string) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	now := time.Now()
	if p.closed || now.Sub(p.lastTrigger) < p.cfg.Debounce {
		p.mu.Unlock()
		return false
	}
	p.lastTrigger = now
	p.ctr.Triggered++
	// Added under mu, so a Close that has not yet set closed waits for it.
	p.running.Add(1)
	p.mu.Unlock()
	go func() {
		defer p.running.Done()
		p.capture(reason)
	}()
	return true
}

// capture runs one full cycle: cpu (sampled for CPUDuration), heap, and
// allocs snapshots, then retention pruning. The counters move once, when
// the cycle completes.
func (p *Profiler) capture(reason string) {
	p.cycle.Lock()
	defer p.cycle.Unlock()
	stamp := fmt.Sprintf("%d", time.Now().UnixNano())
	var captures, errs uint64
	for _, kind := range Kinds {
		if err := p.writeSnapshot(kind, stamp); err != nil {
			errs++
			p.cfg.Logger.Error("profiler capture failed", "kind", kind, "err", err)
			continue
		}
		captures++
	}
	pruned := p.prune()
	p.mu.Lock()
	p.ctr.Captures += captures
	p.ctr.Errors += errs
	p.ctr.Cycles++
	p.ctr.Pruned += pruned
	p.mu.Unlock()
	p.cfg.Logger.Info("profiler cycle complete", "reason", reason, "stamp", stamp)
}

// writeSnapshot captures one kind into Dir atomically (temp + rename).
func (p *Profiler) writeSnapshot(kind, stamp string) error {
	final := filepath.Join(p.cfg.Dir, kind+"-"+stamp+".pprof")
	f, err := os.CreateTemp(p.cfg.Dir, "."+kind+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	switch kind {
	case "cpu":
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		select {
		case <-p.stop:
		case <-time.After(p.cfg.CPUDuration):
		}
		pprof.StopCPUProfile()
	default:
		prof := pprof.Lookup(kind)
		if prof == nil {
			f.Close()
			return fmt.Errorf("unknown profile %q", kind)
		}
		if err := prof.WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), final)
}

// prune enforces the per-kind newest-Retain bound and returns how many
// files it removed.
func (p *Profiler) prune() (pruned uint64) {
	snaps, err := p.scan()
	if err != nil {
		return 0
	}
	byKind := make(map[string][]Snapshot)
	for _, s := range snaps {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	for _, list := range byKind {
		// scan returns newest first; everything past Retain goes.
		for _, s := range list[min(p.cfg.Retain, len(list)):] {
			if os.Remove(filepath.Join(p.cfg.Dir, s.Name)) == nil {
				pruned++
			}
		}
	}
	return pruned
}

// scan reads Dir and returns resident snapshots, newest first (by the
// nanosecond stamp embedded in the name, so ordering survives copied
// mtimes).
func (p *Profiler) scan() ([]Snapshot, error) {
	ents, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var out []Snapshot
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		kind, ok := snapshotKind(name)
		if !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		out = append(out, Snapshot{Name: name, Kind: kind, SizeBytes: info.Size(), ModTime: info.ModTime()})
	}
	// Newest first by the numeric stamp embedded in the name (digit
	// strings compare by length first, so shorter/older epochs sort
	// correctly), name as the tie-break.
	sort.Slice(out, func(i, j int) bool {
		si, sj := stampOf(out[i].Name), stampOf(out[j].Name)
		if len(si) != len(sj) {
			return len(si) > len(sj)
		}
		if si != sj {
			return si > sj
		}
		return out[i].Name > out[j].Name
	})
	return out, nil
}

// snapshotKind extracts the kind prefix of a snapshot file name.
func snapshotKind(name string) (string, bool) {
	if !strings.HasSuffix(name, ".pprof") {
		return "", false
	}
	for _, k := range Kinds {
		if strings.HasPrefix(name, k+"-") {
			return k, true
		}
	}
	return "", false
}

func stampOf(name string) string {
	base := strings.TrimSuffix(name, ".pprof")
	if i := strings.IndexByte(base, '-'); i >= 0 {
		return base[i+1:]
	}
	return base
}

// List returns resident snapshots, newest first. Nil on a nil profiler.
func (p *Profiler) List() ([]Snapshot, error) {
	if p == nil {
		return nil, nil
	}
	return p.scan()
}

// Read returns the contents of a resident snapshot by name. The name is
// validated against the snapshot grammar before touching the
// filesystem, so a request path can never escape Dir.
func (p *Profiler) Read(name string) ([]byte, error) {
	if p == nil {
		return nil, os.ErrNotExist
	}
	if !ValidName(name) {
		return nil, os.ErrNotExist
	}
	return os.ReadFile(filepath.Join(p.cfg.Dir, name))
}

// ValidName reports whether name is a well-formed snapshot file name:
// <kind>-<digits>.pprof with no path structure.
func ValidName(name string) bool {
	kind, ok := snapshotKind(name)
	if !ok {
		return false
	}
	stamp := strings.TrimSuffix(strings.TrimPrefix(name, kind+"-"), ".pprof")
	if stamp == "" || len(name) > 64 {
		return false
	}
	for _, r := range stamp {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// Counters returns a snapshot of the profiler's activity plus the
// current residency. Zero value on nil.
func (p *Profiler) Counters() Counters {
	if p == nil {
		return Counters{}
	}
	p.mu.Lock()
	c := p.ctr
	p.mu.Unlock()
	if snaps, err := p.scan(); err == nil {
		c.Snapshots = len(snaps)
		for _, s := range snaps {
			c.Bytes += s.SizeBytes
		}
	}
	return c
}

// CaptureOnce runs one synchronous capture cycle — the test and
// first-boot hook ("capture a baseline now"). Safe on nil.
func (p *Profiler) CaptureOnce(reason string) {
	if p == nil {
		return
	}
	p.capture(reason)
}

// Command lwmbench is the repository's benchmark: a closed-loop load
// generator that drives a live lwmd, built from the same checkout, with
// seeded watermarking traffic, checks every answer against the
// in-process sequential reference, and prints end-to-end metrics (or,
// with -trace 1, per-layer metrics from an in-process traced replay).
//
//	bash lwmbench/run.sh --workload mark --seed 1 --seconds 20 --trace 0
//
// run.sh builds lwmd and this command from source and runs it from the
// repository root. The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// The line before it is a report with provenance (host, Go version,
// commit, seeds), every end-to-end metric of the workload with its unit
// and sample count, and a digest of the answers to a fixed set of
// requests.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// checkSeed is the second seed: claims made with the benchmark are
// re-checked on it, and it is never used while a change is written.
const checkSeed = 20261017

const (
	loadClients = 2 // closed-loop callers, one per CPU of the reference host
	setupBoots  = 9 // timed set-ups per run; setup_s is their median
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	lwmd     string
	work     string
	root     string
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit, Samples: n}
}

// endToEnd lists the metrics BENCHMARK.json gates: every workload
// reports each of them, and each stays steady from seed to seed. The
// latency quantiles, scan rate, peak memory and failure ratio appear in
// the report line only: a per-kind figure is absent where the workload
// sends no request of that kind, and over ten seeds audit's p50 and
// peak RSS spread by more than the largest bound the benchmark may set.
var endToEnd = []string{"setup_s", "req_per_s"}

// outcome is everything one run measured.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	e2e       metrics // every end-to-end metric, report and result
	layers    metrics // per-layer metrics (trace runs)
	report    map[string]any
}

func main() {
	cfg := config{}
	fl := flag.NewFlagSet("lwmbench", flag.ContinueOnError)
	fl.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fl.IntVar(&cfg.seconds, "seconds", 20, "measurement window in seconds")
	traceFlag := fl.Int("trace", 0, "1: per-layer metrics from a traced in-process replay")
	fl.StringVar(&cfg.lwmd, "lwmd", "", "lwmd binary built from this checkout")
	fl.StringVar(&cfg.work, "work", "", "scratch directory for daemon state, logs and spans")
	fl.StringVar(&cfg.root, "root", ".", "repository root (provenance)")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if cfg.lwmd == "" || cfg.work == "" || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "lwmbench: -lwmd, -work and a positive -seconds are required (use run.sh)")
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lwmbench: %v\n", err)
		os.Exit(1)
	}
	ms := out.e2e
	if cfg.trace {
		ms = out.layers
	}
	// The result line carries value and unit only; sample counts are in
	// the report line.
	values := map[string]metric{}
	for name, v := range ms {
		values[name] = metric{Value: v.Value, Unit: v.Unit}
	}
	final := map[string]any{"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": values}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"lwmbench": out.report}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(final); err != nil {
		os.Exit(1)
	}
}

func run(cfg config) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "lwmd.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	fail := func(err error) (*outcome, error) {
		return nil, fmt.Errorf("%w\n%s", err, logTail(logPath, 20))
	}

	setups, setupResults, d, err := setUp(ctx, w, cfg.lwmd, dir, logf)
	if err != nil {
		return fail(err)
	}
	defer d.kill()
	clients, err := newClients(d.addr, loadClients)
	if err != nil {
		return fail(err)
	}
	m0, err := scrape(ctx, d.addr)
	if err != nil {
		return fail(err)
	}
	window := time.Duration(cfg.seconds) * time.Second
	lr := runLoad(ctx, w, clients, window)
	m1, err := scrape(ctx, d.addr)
	if err != nil {
		return fail(err)
	}
	if err := d.stop(); err != nil {
		return fail(err)
	}

	chk := newChecker(w)
	v, err := chk.check(append(setupResults, lr.results...), w.digestOps())
	if err != nil {
		return nil, err
	}
	out := &outcome{correct: len(v.Mismatches) == 0, e2e: metrics{}}
	for _, r := range lr.results {
		out.attempted++
		if r.err != nil {
			out.failed++
		}
	}
	kindStats := endToEndMetrics(out.e2e, lr, setups, d.maxRSSMB())
	var failures []string
	for _, r := range lr.results {
		if r.err != nil && len(failures) < 8 {
			failures = append(failures, fmt.Sprintf("%s #%d: %v", r.op.Kind, r.idx, r.err))
		}
	}
	out.report = map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"check_seed":   checkSeed,
		"trace":        cfg.trace,
		"host":         hostInfo(),
		"commit":       commitOf(cfg.root),
		"input_sha":    w.inputDigest(),
		"clients":      loadClients,
		"window_s":     window.Seconds(),
		"metrics":      kindStats,
		"attempted":    out.attempted,
		"failed":       out.failed,
		"failures":     failures,
		"check":        v,
		"setup_s_each": seconds(setups),
	}
	if cfg.trace {
		tr, err := replay(ctx, w, chk, window/2, dir)
		if err != nil {
			return nil, err
		}
		out.layers = layerMetrics(tr, lr, m0, m1)
		violations := bypassViolations(cfg.workload, out.layers)
		if len(tr.mismatches) > 0 || len(violations) > 0 {
			out.correct = false
		}
		path, err := writeSpans(tr, cfg.work, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.report["layers"] = out.layers
		out.report["spans_file"] = path
		out.report["replay_mismatches"] = tr.mismatches
		out.report["bypass_violations"] = violations
	}
	return out, nil
}

// setUp boots the daemon once untimed, so the timed boots replay a
// store and jobs WAL, then times setupBoots full set-ups: boot on the
// workload's directories, readiness, corpus registration and warm-up.
// The last daemon stays up for the measurement.
func setUp(ctx context.Context, w *Workload, bin, dir string, logf io.Writer) ([]time.Duration, []*result, *daemon, error) {
	boot := func() (*daemon, []*result, error) {
		d, err := startDaemon(bin, dir, logf)
		if err != nil {
			return nil, nil, err
		}
		cls, err := newClients(d.addr, 1)
		if err != nil {
			d.kill()
			return nil, nil, err
		}
		var ops []Op
		for _, des := range w.Corpus {
			ops = append(ops, putOp(des))
		}
		ops = append(ops, w.Warm...)
		rs, err := runOps(ctx, cls[0], ops)
		if err != nil {
			d.kill()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		return d, rs, nil
	}
	d, all, err := boot()
	if err != nil {
		return nil, nil, nil, err
	}
	if err := d.stop(); err != nil {
		return nil, nil, nil, err
	}
	var times []time.Duration
	for i := 0; i < setupBoots; i++ {
		start := time.Now()
		d, rs, err := boot()
		if err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start))
		all = append(all, rs...)
		if i == setupBoots-1 {
			return times, all, d, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
	return nil, nil, nil, errors.New("unreachable")
}

// endToEndMetrics fills the BENCHMARK.json metrics and returns the full
// per-kind report: latency per request kind (p90 only where at least
// 100 requests leave ten samples beyond it), scans, puts, jobs, peak
// memory and the share of attempted requests that failed.
func endToEndMetrics(m metrics, lr *loadRun, setups []time.Duration, rss float64) metrics {
	var all []float64
	byKind := map[string][]float64{}
	scans := 0
	for _, r := range lr.results {
		if r.err != nil || !r.inWindow {
			continue
		}
		ms := float64(r.latency) / float64(time.Millisecond)
		all = append(all, ms)
		byKind[r.op.Kind] = append(byKind[r.op.Kind], ms)
		if r.op.Kind == kindDetect {
			scans += len(r.op.Detect.Suspects) * len(r.op.Detect.Records)
		}
	}
	win := lr.busy.Seconds()
	setupS := seconds(setups)
	m.set("setup_s", median(setupS), "s", len(setupS))
	m.set("req_per_s", float64(len(all))/win, "1/s", len(all))

	rep := metrics{}
	for k, v := range m {
		rep[k] = v
	}
	rep.set("p50_ms", quantile(all, 0.5), "ms", len(all))
	if len(all) >= 100 {
		rep.set("p90_ms", quantile(all, 0.9), "ms", len(all))
	}
	rep.set("max_rss_mb", rss, "MB", 1)
	failed := 0
	for _, r := range lr.results {
		if r.err != nil {
			failed++
		}
	}
	rep.set("fail_ratio", ratio(float64(failed), float64(len(lr.results))), "ratio", len(lr.results))
	for _, k := range kinds {
		xs := byKind[k]
		if len(xs) == 0 {
			continue
		}
		name := k
		if k == kindPut || k == kindJob {
			rep.set(name+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
			continue
		}
		rep.set(name+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
		if len(xs) >= 100 {
			rep.set(name+"_p90_ms", quantile(xs, 0.9), "ms", len(xs))
		}
	}
	if scans > 0 {
		rep.set("scans_per_s", float64(scans)/win, "1/s", scans)
	}
	return rep
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hostInfo() map[string]any {
	return map[string]any{
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// commitOf reads the checked-out commit from .git without running git;
// a checkout without .git reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
				return f[0]
			}
		}
	}
	return "unknown"
}

func logTail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "lwmd log tail:\n" + strings.Join(lines, "\n")
}

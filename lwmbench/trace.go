package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/internal/obs"
	"localwm/internal/order"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/store"
	"localwm/internal/tmatch"
	"localwm/internal/tmwm"
	"localwm/lwmapi"
)

// reqTrace is one replayed request: the span tree of the request itself
// and, recorded after it, the tree of the probes that re-ran its inner
// layers.
type reqTrace struct {
	Req    int            `json:"req"`
	Kind   string         `json:"kind"`
	Family string         `json:"family"`
	Spans  []obs.SpanView `json:"spans"`
	Probe  []obs.SpanView `json:"probe"`
}

// orderStats accumulates the ordering and domain-selection probes.
type orderStats struct {
	selects, selectNs                    int64
	calls, ns, allocs, bytes, nodes, dep int64
	canonical                            int64
}

// traceRun is what the traced replay measured.
type traceRun struct {
	reqs       []*reqTrace
	allocBytes uint64
	gcCPU      float64
	ord        orderStats
	scans      int
	rootsTried int
	spanNs     float64 // cost of recording one span
	// prof is the CPU profile of the replayed requests (probes excluded).
	prof       *cpuProfile
	mismatches []string
}

// replayer re-issues script requests in-process through the program's
// entry points, in the order lwmd's handlers call them: the wire
// decode, the registry, the family Protocol and the response encode.
// Each request runs under an obs trace, so the engine and PathOracle
// spans are the program's own; the replayer adds spans only around the
// calls it makes. Probes then re-run the inner layers at the roots the
// request visited, under a trace of their own, so their time is a share
// of the enclosing request rather than part of it.
type replayer struct {
	st      *store.Store
	workers int
	run     *traceRun
}

func readRuntime(names ...string) []float64 {
	s := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// timed runs f under a child span of ctx's current span and returns the
// span's duration.
func timed(ctx context.Context, name string, f func(context.Context) error) (time.Duration, error) {
	ctx, s := obs.StartSpan(ctx, name)
	err := f(ctx)
	s.Finish()
	return s.Duration(), err
}

// cpuProfile is a CPU profile as the CPU time of each distinct call
// stack, so a package's share counts every sample with one of its
// frames anywhere on the stack (internal/obs/pprofparse aggregates the
// leaf frame only, and ordering spends most of its time in runtime
// leaves: maps, allocation, sorting).
type cpuProfile struct {
	stacks []cpuStack
	total  time.Duration
}

type cpuStack struct {
	cpu  time.Duration
	pkgs map[string]bool
}

// profileRate is the Go CPU profiler's sampling rate (runtime/pprof).
const profileRate = 100

// profiled runs f under the CPU profiler, writing the profile into dir,
// and reads its stacks with `go tool pprof -traces`.
func profiled(dir string, f func() error) (*cpuProfile, error) {
	path := filepath.Join(dir, "cpu.pprof")
	file, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return nil, err
	}
	err = f()
	pprof.StopCPUProfile()
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `go tool pprof -traces` output: stacks separated by
// "-----------+---" rules, the first line of each carrying its CPU time
// before the leaf frame.
func parseTraces(out []byte) (*cpuProfile, error) {
	p := &cpuProfile{}
	var cur *cpuStack
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		frame := fields[0]
		if cur == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: unexpected line %q", line)
			}
			p.stacks = append(p.stacks, cpuStack{cpu: d, pkgs: map[string]bool{}})
			cur = &p.stacks[len(p.stacks)-1]
			p.total += d
			frame = fields[1]
		}
		cur.pkgs[pkgOf(frame)] = true
	}
	return p, nil
}

// share is the share of CPU time whose stack holds a frame of package
// pkg, with its count of samples.
func (p *cpuProfile) share(pkg string) (float64, int) {
	if p == nil {
		return 0, 0
	}
	var d time.Duration
	for _, st := range p.stacks {
		if st.pkgs[pkg] {
			d += st.cpu
		}
	}
	return ratio(float64(d), float64(p.total)), int(d * profileRate / time.Second)
}

// samples is the profile's sample count.
func (p *cpuProfile) samples() int {
	if p == nil {
		return 0
	}
	return int(p.total * profileRate / time.Second)
}

// pkgOf is the import path of a symbol's package:
// "localwm/internal/order.(*walker).visit" -> "localwm/internal/order".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold paths of their own
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// replay runs the script in-process for the window (at least minReplay
// requests, so every request kind of the workload is seen) under the CPU
// profiler, then probes every replayed request, and checks each replayed
// answer against the sequential reference too.
func replay(ctx context.Context, w *Workload, chk *checker, window time.Duration, dir string) (*traceRun, error) {
	const minReplay = 8
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "replay-store")})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for _, d := range w.Corpus {
		if _, _, err := st.PutOwnedFamily(d.Family, "", d.Text, 0, 0); err != nil {
			return nil, err
		}
	}
	run := &traceRun{spanNs: spanCost()}
	r := &replayer{st: st, workers: runtime.NumCPU(), run: run}
	var replayed []*result
	var resps []any
	run.prof, err = profiled(dir, func() error {
		cpu0 := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
		start := time.Now()
		for i := 0; i < minReplay || time.Since(start) < window; i++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			op := &w.Script[i%len(w.Script)]
			tr := obs.NewTrace(obs.TraceID(fmt.Sprintf("replay-%d", i)))
			a0 := readRuntime("/gc/heap/allocs:bytes")[0]
			resp, body, err := r.request(obs.WithTrace(ctx, tr), op)
			run.allocBytes += uint64(readRuntime("/gc/heap/allocs:bytes")[0] - a0)
			if err != nil {
				return fmt.Errorf("replaying %s #%d: %w", op.Kind, i, err)
			}
			run.reqs = append(run.reqs, &reqTrace{Req: i, Kind: op.Kind, Family: op.Family, Spans: tr.Tree()})
			resps = append(resps, resp)
			replayed = append(replayed, &result{idx: i, op: op, hash: sha256.Sum256(body)})
		}
		cpu1 := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
		run.gcCPU = ratio(cpu1[0]-cpu0[0], cpu1[1]-cpu0[1])
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, rt := range run.reqs {
		op := replayed[k].op
		tr := obs.NewTrace(obs.TraceID(fmt.Sprintf("probe-%d", rt.Req)))
		if _, err := timed(obs.WithTrace(ctx, tr), "probe."+op.Kind, func(ctx context.Context) error {
			return r.probe(ctx, op, resps[k])
		}); err != nil {
			return nil, fmt.Errorf("probing %s #%d: %w", op.Kind, rt.Req, err)
		}
		rt.Probe = tr.Tree()
	}
	v, err := chk.check(replayed, nil)
	if err != nil {
		return nil, err
	}
	run.mismatches = v.Mismatches
	return run, nil
}

// spanCost measures what recording one obs span costs.
func spanCost() float64 {
	ctx := obs.WithTrace(context.Background(), obs.NewTrace("span-cost"))
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		_, s := obs.StartSpan(ctx, "x")
		s.Finish()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decode encodes what the client would send and decodes it as the
// daemon's handler does.
func decode(ctx context.Context, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	_, err = timed(ctx, "lwmapi.decode", func(context.Context) error { return decodeStrict(raw, out) })
	return err
}

// design resolves an inline or registered design as lwmd does: a
// registered design is the registry's shared copy, cloned for an embed.
func (r *replayer) design(ctx context.Context, proto family.Protocol, inline, ref string, clone bool) (d family.Design, shared bool, err error) {
	if ref == "" {
		_, err = timed(ctx, "family.parse_design", func(context.Context) error {
			d, err = proto.ParseDesign(inline)
			return err
		})
		return d, false, err
	}
	var sd *store.Design
	if _, err := timed(ctx, "store.get", func(context.Context) error {
		var ok bool
		if sd, ok = r.st.Get(ref); !ok {
			return fmt.Errorf("design_ref %s: not registered", ref)
		}
		return nil
	}); err != nil {
		return nil, false, err
	}
	if !clone {
		return sd.Artifact, true, nil
	}
	_, _ = timed(ctx, "family.clone", func(context.Context) error { d = sd.Artifact.Clone(); return nil })
	return d, false, nil
}

func (r *replayer) suspect(ctx context.Context, proto family.Protocol, s lwmapi.Suspect) (family.Suspect, error) {
	d, shared, err := r.design(ctx, proto, s.Design, s.DesignRef, false)
	if err != nil {
		return family.Suspect{}, err
	}
	var sol family.Solution
	_, err = timed(ctx, "family.parse_solution", func(context.Context) error {
		sol, err = proto.ParseSolution(d, s.Schedule)
		return err
	})
	return family.Suspect{Design: d, Solution: sol, Shared: shared}, err
}

// request replays one op and returns the typed response and the bytes
// the client would hash.
func (r *replayer) request(ctx context.Context, op *Op) (resp any, body []byte, err error) {
	ctx, root := obs.StartSpan(ctx, "request."+op.Kind)
	defer root.Finish()
	proto, err := family.Lookup(op.Family)
	if err != nil {
		return nil, nil, err
	}
	switch op.Kind {
	case kindEmbed, kindJob:
		var req lwmapi.EmbedRequest
		if err := decode(ctx, op.Embed, &req); err != nil {
			return nil, nil, err
		}
		proto.Normalize(&req.MarkParams)
		d, _, err := r.design(ctx, proto, req.Design, req.DesignRef, true)
		if err != nil {
			return nil, nil, err
		}
		_, err = timed(ctx, "family.embed", func(ctx context.Context) error {
			resp, err = proto.Embed(ctx, d, req.Signature, req.MarkParams, r.workers)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	case kindVerify:
		var req lwmapi.VerifyRequest
		if err := decode(ctx, op.Verify, &req); err != nil {
			return nil, nil, err
		}
		proto.Normalize(&req.MarkParams)
		sp, err := r.suspect(ctx, proto, lwmapi.Suspect{Design: req.Design, DesignRef: req.DesignRef, Schedule: req.Schedule})
		if err != nil {
			return nil, nil, err
		}
		_, err = timed(ctx, "family.verify", func(ctx context.Context) error {
			resp, err = proto.Verify(ctx, sp, req.Signature, req.MarkParams, r.workers)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	case kindDetect:
		var req lwmapi.DetectRequest
		if err := decode(ctx, op.Detect, &req); err != nil {
			return nil, nil, err
		}
		suspects := make([]family.Suspect, len(req.Suspects))
		for i, s := range req.Suspects {
			if suspects[i], err = r.suspect(ctx, proto, s); err != nil {
				return nil, nil, err
			}
		}
		_, err = timed(ctx, "family.detect", func(ctx context.Context) error {
			resp, err = proto.Detect(ctx, suspects, req.Records, r.workers)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	case kindPut:
		var req lwmapi.PutDesignRequest
		if err := decode(ctx, lwmapi.PutDesignRequest{Family: familyField(op.Put.Family), Design: op.Put.Text}, &req); err != nil {
			return nil, nil, err
		}
		var sd *store.Design
		var created bool
		if _, err := timed(ctx, "store.put", func(context.Context) error {
			sd, created, err = r.st.PutOwnedFamily(proto.Name(), "", req.Design, 0, 0)
			return err
		}); err != nil {
			return nil, nil, err
		}
		put := &lwmapi.PutDesignResponse{Ref: sd.Ref, Created: created, Bytes: len(sd.Text),
			Nodes: sd.Nodes(), Family: familyField(sd.Family)}
		if _, err := encode(ctx, put); err != nil {
			return nil, nil, err
		}
		// The client hashes a put's answer with Created cleared (see
		// client.do).
		put.Created = false
		body, err := json.Marshal(put)
		return put, body, err
	default:
		return nil, nil, fmt.Errorf("unknown kind %q", op.Kind)
	}
	body, err = encode(ctx, resp)
	return resp, body, err
}

func encode(ctx context.Context, v any) (out []byte, err error) {
	_, err = timed(ctx, "lwmapi.encode", func(context.Context) error {
		out, err = serverJSON(v)
		return err
	})
	return out, err
}

// probe re-runs the inner layers of the request just replayed, through
// their own entry points, on the request's inputs. Where a probe
// re-derives what the request answered (watermark records, marked
// design, marked solution), it must derive the same, so the probes time
// the work the program did.
func (r *replayer) probe(ctx context.Context, op *Op, resp any) error {
	proto, err := family.Lookup(op.Family)
	if err != nil {
		return err
	}
	p := markParams
	proto.Normalize(&p)
	switch op.Kind {
	case kindEmbed, kindJob:
		text := r.text(op.Embed.Design, op.Embed.DesignRef)
		return r.probeMark(ctx, proto, text, "", op.Embed.Signature, p, resp.(*lwmapi.EmbedResponse))
	case kindVerify:
		text := r.text(op.Verify.Design, op.Verify.DesignRef)
		return r.probeMark(ctx, proto, text, op.Verify.Schedule, op.Verify.Signature, p, nil)
	case kindDetect:
		det := resp.(*lwmapi.DetectResponse)
		for i, s := range op.Detect.Suspects {
			if err := r.probeScan(ctx, proto, s, op.Detect.Records, det.Results[i]); err != nil {
				return err
			}
		}
		return nil
	case kindPut:
		d, err := proto.ParseDesign(op.Put.Text)
		if err != nil {
			return err
		}
		_, _ = timed(ctx, "family.canonical", func(context.Context) error { _ = d.Canonical(); return nil })
		if op.Family == lwmapi.FamilyGcolor {
			return nil
		}
		_, err = parseCDFG(ctx, op.Put.Text)
		return err
	}
	return nil
}

func (r *replayer) text(inline, ref string) string {
	if ref == "" {
		return inline
	}
	sd, _ := r.st.Get(ref)
	return sd.Text
}

func parseCDFG(ctx context.Context, text string) (g *cdfg.Graph, err error) {
	_, err = timed(ctx, "cdfg.parse", func(context.Context) error {
		g, err = cdfg.Parse(strings.NewReader(text))
		return err
	})
	return g, err
}

func writeCDFG(ctx context.Context, g *cdfg.Graph) (string, error) {
	var buf bytes.Buffer
	_, err := timed(ctx, "cdfg.write", func(context.Context) error { return cdfg.Write(&buf, g) })
	return buf.String(), err
}

// sameRecords fails unless a probe re-derived the records the request
// answered.
func sameRecords(got, want []lwmapi.Record) error {
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("probe derived other watermarks than the request answered")
	}
	return nil
}

// probeMark probes an embed (want is its answer) or a verify (solution
// is the suspect's): both place the signature's watermarks, so both
// visit the roots the master stream picks.
func (r *replayer) probeMark(ctx context.Context, proto family.Protocol, text, solution, sig string, p lwmapi.MarkParams, want *lwmapi.EmbedResponse) error {
	switch proto.Name() {
	case lwmapi.FamilyGcolor:
		return probeGcolorMark(ctx, text, solution, sig, p, want)
	case lwmapi.FamilyTmwm:
		return r.probeTmwmMark(ctx, text, solution, sig, p, want)
	}
	g, err := parseCDFG(ctx, text)
	if err != nil {
		return err
	}
	cfg, err := family.SchedConfig(g, p, 1)
	if err != nil {
		return err
	}
	if cfg, err = cfg.Normalized(); err != nil {
		return err
	}
	if _, err := timed(ctx, "schedwm.prepare", func(context.Context) error {
		_, err := schedwm.Prepare(g, cfg)
		return err
	}); err != nil {
		return err
	}
	marked := g.Clone()
	var wms []*schedwm.Watermark
	if _, err := timed(ctx, "schedwm.embed", func(context.Context) error {
		wms, err = schedwm.EmbedMany(marked, prng.Signature(sig), cfg, p.N)
		return err
	}); err != nil {
		return err
	}
	tries := map[int]int{}
	var recs []lwmapi.Record
	for _, wm := range wms {
		tries[wm.Index] = wm.Tries
		recs = append(recs, lwmapi.FromSchedRecord(wm.Record()))
	}
	if want != nil {
		if err := sameRecords(recs, want.Records); err != nil {
			return err
		}
		text, err := writeCDFG(ctx, marked)
		if err != nil {
			return err
		}
		if text != want.MarkedDesign {
			return fmt.Errorf("probe wrote another marked design than the request answered")
		}
	}
	if solution != "" {
		var s *sched.Schedule
		if _, err := timed(ctx, "sched.parse_schedule", func(context.Context) error {
			s, err = sched.ParseSchedule(g, strings.NewReader(solution))
			return err
		}); err != nil {
			return err
		}
		if _, err := timed(ctx, "schedwm.check", func(context.Context) error {
			_, err := schedwm.CheckConstraints(g, s, wms)
			return err
		}); err != nil {
			return err
		}
		if err := probeWindows(ctx, g, s); err != nil {
			return err
		}
	}
	r.probeRoots(ctx, g, prng.Signature(sig), cfg.Domain, cfg.MaxTries, p.N, tries, "/sched-domain/%d/%d")
	return nil
}

// probeTmwmMark probes a template-matching embed or verify. The
// family's budget default is the scheduling family's (critical path +
// 10% + 1), taken from family.SchedConfig; the probe's records must
// equal the embed's answer, so a config that drifted from the family's
// fails the run instead of timing other work.
func (r *replayer) probeTmwmMark(ctx context.Context, text, solution, sig string, p lwmapi.MarkParams, want *lwmapi.EmbedResponse) error {
	g, err := parseCDFG(ctx, text)
	if err != nil {
		return err
	}
	lib := tmatch.StandardLibrary()
	_, _ = timed(ctx, "tmatch.enumerate", func(context.Context) error {
		_ = tmatch.EnumerateAll(g, lib, tmatch.Constraints{})
		return nil
	})
	sc, err := family.SchedConfig(g, p, 1)
	if err != nil {
		return err
	}
	cfg := tmwm.Config{Z: p.K, Epsilon: p.Epsilon, Budget: sc.Budget, Lib: lib, Tau: p.Tau}
	var wms []*tmwm.Watermark
	if _, err := timed(ctx, "tmwm.embed", func(context.Context) error {
		wms, err = tmwm.EmbedMany(g, prng.Signature(sig), cfg, p.N)
		return err
	}); err != nil {
		return err
	}
	tries := map[int]int{}
	var recs []lwmapi.Record
	for _, wm := range wms {
		tries[wm.Index] = wm.Tries
		recs = append(recs, lwmapi.FromTmwmRecord(wm.Record()))
	}
	if want != nil {
		if err := sameRecords(recs, want.Records); err != nil {
			return err
		}
		enforced, cons := tmwm.CombineConstraints(wms)
		var cover *tmatch.Cover
		if _, err := timed(ctx, "tmatch.greedy_cover", func(context.Context) error {
			cover, err = tmatch.GreedyCover(g, lib, cons, enforced)
			return err
		}); err != nil {
			return err
		}
		var sol string
		_, _ = timed(ctx, "tmatch.format_cover", func(context.Context) error {
			sol = tmatch.FormatCover(g, lib, cover)
			return nil
		})
		design, err := writeCDFG(ctx, g)
		if err != nil {
			return err
		}
		if sol != want.MarkedSolution || design != want.MarkedDesign {
			return fmt.Errorf("probe covered or wrote otherwise than the request answered")
		}
	}
	if solution != "" {
		if _, err := parseCover(ctx, g, solution); err != nil {
			return err
		}
		if _, err := timed(ctx, "tmatch.count_coverings", func(context.Context) error {
			for _, wm := range wms {
				for _, m := range wm.Enforced {
					if _, err := tmatch.CountCoverings(g, lib, tmatch.Constraints{}, m.Nodes); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	wcfg := wms[0].Config
	r.probeRoots(ctx, g, prng.Signature(sig), wcfg.Domain, wcfg.MaxTries, p.N, tries, "/tmatch-domain/%d/%d")
	return nil
}

func parseCover(ctx context.Context, g *cdfg.Graph, text string) (c *tmatch.Cover, err error) {
	_, err = timed(ctx, "tmatch.parse_cover", func(context.Context) error {
		c, err = tmatch.ParseCover(g, tmatch.StandardLibrary(), strings.NewReader(text))
		return err
	})
	return c, err
}

func parseGcolor(ctx context.Context, design, coloring string) (g *gcolor.Graph, col gcolor.Coloring, err error) {
	_, err = timed(ctx, "gcolor.parse", func(context.Context) error {
		if g, err = gcolor.ParseGraph(strings.NewReader(design)); err != nil || coloring == "" {
			return err
		}
		col, err = gcolor.ParseColoring(g.N(), strings.NewReader(coloring))
		return err
	})
	return g, col, err
}

// probeGcolorMark probes a graph-coloring embed (its marked instance
// and coloring must equal the answer) or verify.
func probeGcolorMark(ctx context.Context, text, solution, sig string, p lwmapi.MarkParams, want *lwmapi.EmbedResponse) error {
	g, col, err := parseGcolor(ctx, text, solution)
	if err != nil {
		return err
	}
	cfg := gcolor.Config{Tau: p.Tau, K: p.K}
	target := g
	if want == nil {
		target = g.Clone() // a verify re-derives on a throwaway copy
	}
	var wm *gcolor.Watermark
	if _, err := timed(ctx, "gcolor.embed", func(context.Context) error {
		wm, err = gcolor.Embed(target, prng.Signature(sig), cfg)
		return err
	}); err != nil {
		return err
	}
	if want == nil {
		_, err := timed(ctx, "gcolor.detect", func(context.Context) error {
			_, err := gcolor.Detect(g, col, wm.Record())
			return err
		})
		return err
	}
	_, _ = timed(ctx, "gcolor.dsatur", func(context.Context) error { col = gcolor.DSATUR(g); return nil })
	var design, coloring string
	_, _ = timed(ctx, "gcolor.format", func(context.Context) error {
		design, coloring = gcolor.FormatGraph(g), gcolor.FormatColoring(col)
		return nil
	})
	if design != want.MarkedDesign || coloring != want.MarkedSolution {
		return fmt.Errorf("probe colored otherwise than the request answered")
	}
	return sameRecords([]lwmapi.Record{lwmapi.FromGcolorRecord(wm.Record())}, want.Records)
}

func probeWindows(ctx context.Context, g *cdfg.Graph, s *sched.Schedule) error {
	budget := s.Budget
	if budget < s.Makespan() {
		budget = s.Makespan()
	}
	_, err := timed(ctx, "sched.windows", func(context.Context) error {
		_, err := sched.ComputeWindows(g, budget, false)
		return err
	})
	return err
}

// probeRoots replays the root picks of embedding n watermarks: each
// index tries roots drawn from the signature's master stream until one
// hosts a watermark (its recorded try count; the retry cap for an index
// that failed), selecting a domain and ordering its fan-in tree at each.
func (r *replayer) probeRoots(ctx context.Context, g *cdfg.Graph, sig prng.Signature, dcfg domain.Config, maxTries, n int, tries map[int]int, stream string) {
	master, err := prng.NewBitstream(sig)
	if err != nil {
		return
	}
	for idx := 0; idx < n; idx++ {
		t, ok := tries[idx]
		if !ok {
			t = maxTries
		}
		for try := 1; try <= t; try++ {
			root, err := domain.PickRoot(g, master)
			if err != nil {
				return
			}
			r.probeSelect(ctx, g, sig, fmt.Sprintf(stream, idx, try), root, dcfg)
		}
	}
}

// probeScan probes a detect of one suspect: the family's scan per
// record, then the scan's candidate roots — every node whose structural
// fingerprint matches the record's root, the first RootsTried of them
// as the answer reported — selecting a domain and ordering its fan-in
// tree at each.
func (r *replayer) probeScan(ctx context.Context, proto family.Protocol, s lwmapi.Suspect, recs []lwmapi.Record, outs []lwmapi.DetectOutcome) error {
	text := r.text(s.Design, s.DesignRef)
	if proto.Name() == lwmapi.FamilyGcolor {
		g, col, err := parseGcolor(ctx, text, s.Schedule)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if _, err := timed(ctx, "gcolor.detect", func(context.Context) error {
				_, err := gcolor.Detect(g, col, rec.Gcolor())
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	}
	g, err := parseCDFG(ctx, text)
	if err != nil {
		return err
	}
	var sc *sched.Schedule
	var cover *tmatch.Cover
	stream := "/tmatch-domain/%d/%d"
	if proto.Name() == lwmapi.FamilySched {
		stream = "/sched-domain/%d/%d"
		if _, err := timed(ctx, "sched.parse_schedule", func(context.Context) error {
			sc, err = sched.ParseSchedule(g, strings.NewReader(s.Schedule))
			return err
		}); err != nil {
			return err
		}
	} else if cover, err = parseCover(ctx, g, s.Schedule); err != nil {
		return err
	}
	for j, rec := range recs {
		if sc != nil {
			if _, err := timed(ctx, "schedwm.detect", func(context.Context) error {
				_, err := schedwm.Detect(g, sc, rec.Sched())
				return err
			}); err != nil {
				return err
			}
			if err := probeWindows(ctx, g, sc); err != nil {
				return err
			}
		} else if _, err := timed(ctx, "tmwm.detect", func(context.Context) error {
			_, err := tmwm.Detect(g, tmatch.StandardLibrary(), cover, rec.Tmwm())
			return err
		}); err != nil {
			return err
		}
		tried := outs[j].RootsTried
		r.run.scans++
		r.run.rootsTried += tried
		for _, root := range g.Computational() {
			if tried == 0 {
				break
			}
			if !eligibleRoot(g, root) || (rec.RootFP != "" && domain.RootFingerprint(g, root) != rec.RootFP) {
				continue
			}
			tried--
			r.probeSelect(ctx, g, rec.Signature, fmt.Sprintf(stream, rec.Index, rec.Try), root, rec.DomainCfg)
		}
	}
	return nil
}

// probeSelect selects a domain at root, then orders the selected fan-in
// tree on its own, counting the ordering's allocations.
func (r *replayer) probeSelect(ctx context.Context, g *cdfg.Graph, sig prng.Signature, suffix string, root cdfg.NodeID, dcfg domain.Config) {
	key := append(append(prng.Signature{}, sig...), suffix...)
	ds, err := prng.NewBitstream(key)
	if err != nil {
		return
	}
	var d *domain.Domain
	dur, err := timed(ctx, "domain.select", func(context.Context) error {
		d, err = domain.Select(g, ds, root, dcfg)
		return err
	})
	o := &r.run.ord
	o.selects++
	o.selectNs += dur.Nanoseconds()
	if err != nil {
		return
	}
	sub := cdfg.SortedIDs(append([]cdfg.NodeID(nil), d.To...))
	var m0, m1 runtime.MemStats
	var res *order.Result
	runtime.ReadMemStats(&m0)
	dur, err = timed(ctx, "order.order", func(context.Context) error {
		res, err = order.Order(g, root, sub, 0)
		return err
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return
	}
	o.calls++
	o.ns += dur.Nanoseconds()
	o.allocs += int64(m1.Mallocs - m0.Mallocs)
	o.bytes += int64(m1.TotalAlloc - m0.TotalAlloc)
	o.nodes += int64(len(sub))
	o.dep += int64(res.MaxDepth)
	if res.Canonical {
		o.canonical++
	}
}

// writeSpans writes the replay's span trees, one request per line.
func writeSpans(run *traceRun, work, workload string, seed int64) (string, error) {
	dir := filepath.Join(filepath.Dir(filepath.Clean(work)), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, rt := range run.reqs {
		if err := enc.Encode(rt); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

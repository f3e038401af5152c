// Command lwm is the local-watermarking toolchain driver:
//
//	lwm gen -design <name> -o design.cdfg
//	    write one of the built-in benchmark designs to a file
//	lwm info -in design.cdfg
//	    print design statistics (ops, critical path, laxity profile)
//	lwm embed -in design.cdfg -sig <signature> [-n 2] [-tau 20] [-k 4]
//	          [-epsilon 0.25] [-budget 0] -out marked.cdfg -record rec.json
//	    embed scheduling watermarks; writes the constrained design and the
//	    detection record
//	lwm schedule -in marked.cdfg -out sched.txt [-budget 0]
//	    produce a schedule honoring the embedded temporal constraints
//	lwm detect -in suspect.cdfg -schedule sched.txt -record rec.json
//	    scan a suspect scheduled design for the recorded watermarks
//	lwm verify -in suspect.cdfg -schedule sched.txt -sig <signature> ...
//	    adjudicate an ownership claim by re-deriving the constraints from
//	    the claimed signature (no record trusted)
//	lwm synth -in design.cdfg [-budget N]
//	    run the plain behavioral-synthesis pipeline and print the
//	    allocation report (schedule, covering, modules, registers)
//	lwm robust -in design.cdfg -sig <signature> [-seed S] [-battery spec.json]
//	    run a seeded attack campaign against the re-marked design and
//	    print the structured robustness report
//	lwm trace {list|get} -remote <addr>
//	    read a daemon's flight recorder: list retained traces, render one
//	    trace's span tree with stage timings and engine counter deltas
//	lwm prof {list|get|diff} -remote <addr>
//	    list, fetch, and diff a daemon's pprof snapshots; diff prints a
//	    top-N symbol delta table with the built-in pprof reader
//	lwm dot -in design.cdfg [-o out.dot]
//	    render the design for Graphviz
//
// embed, detect, and verify also accept -remote <addr>: the work then
// runs on a lwmd daemon through the resilient lwmclient (retries,
// circuit breaker) with byte-identical printed output, so scripts can
// switch between local and remote without changing their parsing.
//
// Remote mode additionally supports the daemon's design registry:
//
//	lwm design put -remote <addr> -in design.cdfg
//	    register a design; prints its content-addressed reference (the
//	    SHA-256 of the canonical text) alone on stdout for scripting
//	lwm design get -remote <addr> -ref <ref> [-o out.cdfg]
//	    fetch a registered design's canonical text back
//
// and embed/detect/verify accept -ref <reference> in place of -in, so
// repeat requests against a registered design skip re-sending and
// re-parsing its text.
//
// The full experiment reproduction lives in the sibling command `tables`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/engine"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/tmatch"
	"localwm/lwmapi"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "embed":
		err = cmdEmbed(os.Args[2:])
	case "schedule":
		err = cmdSchedule(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "dot":
		err = cmdDot(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "design":
		err = cmdDesign(os.Args[2:])
	case "families":
		err = cmdFamilies(os.Args[2:])
	case "job":
		err = cmdJob(os.Args[2:])
	case "robust":
		err = cmdRobust(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "prof":
		err = cmdProf(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lwm: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lwm {gen|info|embed|schedule|detect|verify|synth|design|families|job|robust|trace|prof|dot} [flags]")
}

// traceCtx builds the context for a marking command. With -trace off it
// is a plain background context and a no-op finish. With -trace on, the
// context carries a fresh obs.Trace — the engine, the oracle bridge, and
// (in remote mode) the resilient client all hang their spans on it — and
// finish prints the span tree to stderr after the report, leaving stdout
// byte-identical to an untraced run.
func traceCtx(enabled bool) (context.Context, func()) {
	if !enabled {
		return context.Background(), func() {}
	}
	tr := obs.NewTrace(obs.NewTraceID())
	return obs.WithTrace(context.Background(), tr), func() { tr.WriteTree(os.Stderr) }
}

// flushTrace prints ctx's trace tree now — for the os.Exit(3) report
// paths, which never run deferred finishers. No-op when untraced (and
// harmless with the deferred finish: os.Exit skips defers entirely).
func flushTrace(ctx context.Context) {
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.WriteTree(os.Stderr)
	}
}

// observeGraph mirrors the daemon's oracle bridge for local traced runs:
// PathOracle recomputations on g appear as "oracle.<kind>" spans.
func observeGraph(ctx context.Context, g *cdfg.Graph) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return
	}
	parent := obs.CurrentSpan(ctx)
	g.OnPathRecompute(func(kind string, start time.Time, elapsed time.Duration) {
		tr.Record(parent, "oracle."+kind, start, elapsed)
	})
}

// cmdSynth runs the full behavioral-synthesis pipeline on a design and
// prints an allocation report: schedule, template covering, module and
// register allocation, and functional-unit binding — the substrate the
// watermarking protocols ride on, usable on its own.
func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	in := fs.String("in", "", "design file")
	budget := fs.Int("budget", 0, "control-step budget (0: critical path)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	st, err := cdfg.ComputeStats(g)
	if err != nil {
		return err
	}
	fmt.Println(st)
	if *budget == 0 {
		*budget = st.CriticalPath
	}

	// Schedule (time-constrained, force-directed when tractable).
	var s *sched.Schedule
	if st.Computational <= 400 {
		s, err = sched.FDSchedule(g, sched.FDSOpts{Budget: *budget, UseTemporal: true})
	} else {
		s, err = sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	}
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %d control steps (budget %d)\n", s.Makespan(), *budget)
	use := sched.ResourceUsage(g, s)
	fmt.Printf("peak functional units: %d ALU, %d MUL, %d MEM, %d BR\n",
		use[sched.FUALU], use[sched.FUMul], use[sched.FUMem], use[sched.FUBr])

	// Registers and binding.
	regs, err := sched.MinRegisters(g, s, nil)
	if err != nil {
		return err
	}
	bind, err := sched.BindFUs(g, s, true)
	if err != nil {
		return err
	}
	fmt.Printf("registers: %d (left-edge); interconnect switches: %d\n", regs, bind.Switches)

	// Template covering and allocation at the budget.
	lib := tmatch.StandardLibrary()
	cover, err := tmatch.GreedyCover(g, lib, tmatch.Constraints{}, nil)
	if err != nil {
		return err
	}
	alloc, err := tmatch.Allocate(g, lib, cover, *budget, nil)
	if err != nil {
		return err
	}
	fmt.Printf("template covering: %d module instantiations, %d registers, %d total modules\n",
		len(cover.Matchings), alloc.Registers, alloc.Modules)
	for name, count := range cover.Uses(lib) {
		fmt.Printf("  %-8s x%d\n", name, count)
	}
	return nil
}

// cmdVerify adjudicates an ownership claim without trusting any record:
// the marking derivation is re-run from the claimed signature and its
// constraints checked against the suspect schedule. The embedding
// parameters are public and must match the claimant's.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "suspect design file")
	schedPath := fs.String("schedule", "", "suspect schedule file")
	sig := fs.String("sig", "", "claimed author signature")
	n := fs.Int("n", 2, "number of local watermarks claimed")
	tau := fs.Int("tau", 20, "subtree cardinality τ")
	k := fs.Int("k", 4, "temporal edges per watermark K")
	eps := fs.Float64("epsilon", 0.25, "laxity margin ε")
	budget := fs.Int("budget", 0, "control-step budget (0: critical path + 10%)")
	remote := fs.String("remote", "", "lwmd daemon address (empty: verify in-process)")
	apiKeyFlag(fs)
	ref := fs.String("ref", "", "design registry reference in place of -in (remote only; see lwm design put)")
	fam := familyFlag(fs)
	trace := fs.Bool("trace", false, "print the span tree (engine stages, oracle recomputes, remote attempts) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkRefFlag(*ref, *remote); err != nil {
		return err
	}
	ctx, finishTrace := traceCtx(*trace)
	defer finishTrace()
	if f := lwmapi.CanonicalFamily(*fam); f != lwmapi.FamilySched {
		return familyVerify(ctx, f, *remote, *in, *ref, *schedPath, *sig,
			markParamsFrom(fs, n, tau, k, eps, budget))
	}
	if *remote != "" {
		return remoteVerify(ctx, *remote, *in, *ref, *schedPath, *sig, *n, *tau, *k, *eps, *budget)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := parseSchedule(g, *schedPath)
	if err != nil {
		return err
	}
	if *budget == 0 {
		cp, err := g.CriticalPath()
		if err != nil {
			return err
		}
		*budget = cp + cp/10 + 1
	}
	observeGraph(ctx, g)
	cfg := schedwm.Config{Tau: *tau, K: *k, Epsilon: *eps, Budget: *budget}
	det, err := engine.VerifyOwnershipCtx(ctx, g, s, prng.Signature(*sig), cfg, *n)
	if err != nil {
		return err
	}
	fmt.Printf("claim by %q: %d/%d re-derived constraints satisfied, Pc %v\n",
		*sig, det.Best.Satisfied, det.Best.Total, det.Best.Pc)
	if !det.Found {
		fmt.Println("verdict: claim NOT verified")
		flushTrace(ctx)
		os.Exit(3)
	}
	fmt.Println("verdict: claim verified")
	return nil
}

func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	in := fs.String("in", "", "design file")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return cdfg.WriteDot(w, g, nil)
}

// builtinDesigns maps design names to constructors.
var builtinDesigns = map[string]func() *cdfg.Graph{
	"iir4":      designs.FourthOrderParallelIIR,
	"cfiir8":    designs.EighthOrderCFIIR,
	"gectrl":    designs.LinearGEController,
	"wavelet":   designs.WaveletFilter,
	"modem":     designs.ModemFilter,
	"volterra2": designs.Volterra2,
	"volterra3": designs.Volterra3,
	"dac":       designs.DAConverter,
	"echo":      designs.LongEchoCanceler,
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("design", "", "design name (iir4, cfiir8, gectrl, wavelet, modem, volterra2, volterra3, dac, echo, or a MediaBench app like 'epic')")
	out := fs.String("o", "", "output file (default stdout)")
	fam := familyFlag(fs)
	nodes := fs.Int("nodes", 48, "vertex count (gcolor family)")
	density := fs.Int("density", 15, "edge probability in percent beyond the connectivity backbone (gcolor family)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if f := lwmapi.CanonicalFamily(*fam); f == lwmapi.FamilyGcolor {
		// Graph-coloring instances are generated, not drawn from the
		// benchmark suite: -design seeds the deterministic generator.
		return genGcolor(*name, *nodes, *density, *out)
	} else if f != lwmapi.FamilySched {
		return fmt.Errorf("gen: family %q designs are cdfg text; use the built-in designs (omit -family)", f)
	}
	var g *cdfg.Graph
	if build, ok := builtinDesigns[*name]; ok {
		g = build()
	} else {
		for _, app := range designs.MediaBench() {
			if app.Name == *name {
				g = designs.Layered(app.Cfg)
				break
			}
		}
	}
	if g == nil {
		return fmt.Errorf("unknown design %q", *name)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return cdfg.Write(w, g)
}

func loadGraph(path string) (*cdfg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return cdfg.Parse(f)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "design file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	st, err := cdfg.ComputeStats(g)
	if err != nil {
		return err
	}
	fmt.Println(st)
	// Laxity histogram in tenths of the critical path — where the
	// watermark protocols find their eligible nodes.
	cp := st.CriticalPath
	lax, err := g.Laxities()
	if err != nil {
		return err
	}
	hist := make([]int, 11)
	for _, v := range g.Computational() {
		b := 10
		if cp > 0 {
			b = lax[v] * 10 / cp
			if b > 10 {
				b = 10
			}
		}
		hist[b]++
	}
	fmt.Println("laxity histogram (fraction of critical path):")
	for b, c := range hist {
		if c > 0 {
			fmt.Printf("  %3d%%-%3d%%: %d ops\n", b*10, (b+1)*10, c)
		}
	}
	return nil
}

// recordFile is the JSON envelope for detection records. Family labels
// the watermark family the records belong to; omitted for scheduling
// records, so sched record files are byte-identical to what earlier
// releases wrote (and the Record tail fields are omitempty for the same
// reason).
type recordFile struct {
	Signature []byte          `json:"signature"`
	Family    string          `json:"family,omitempty"`
	Records   []lwmapi.Record `json:"records"`
}

func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	in := fs.String("in", "", "design file")
	sig := fs.String("sig", "", "author signature")
	n := fs.Int("n", 2, "number of local watermarks")
	tau := fs.Int("tau", 20, "subtree cardinality τ")
	k := fs.Int("k", 4, "temporal edges per watermark K")
	eps := fs.Float64("epsilon", 0.25, "laxity margin ε")
	budget := fs.Int("budget", 0, "control-step budget (0: critical path + 10%)")
	out := fs.String("out", "", "marked design output file")
	solPath := fs.String("solution", "", "marked solution output file (tmwm: template cover; gcolor: coloring)")
	recPath := fs.String("record", "", "detection record output file (JSON)")
	remote := fs.String("remote", "", "lwmd daemon address (empty: embed in-process)")
	apiKeyFlag(fs)
	ref := fs.String("ref", "", "design registry reference in place of -in (remote only; see lwm design put)")
	fam := familyFlag(fs)
	trace := fs.Bool("trace", false, "print the span tree (engine stages, oracle recomputes, remote attempts) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkRefFlag(*ref, *remote); err != nil {
		return err
	}
	ctx, finishTrace := traceCtx(*trace)
	defer finishTrace()
	if f := lwmapi.CanonicalFamily(*fam); f != lwmapi.FamilySched {
		return familyEmbed(ctx, f, *remote, *in, *ref, *sig,
			markParamsFrom(fs, n, tau, k, eps, budget), *out, *solPath, *recPath)
	}
	if *solPath != "" {
		return fmt.Errorf("-solution only applies to -family tmwm or gcolor (scheduling watermarks live in the marked design)")
	}
	if *remote != "" {
		return remoteEmbed(ctx, *remote, *in, *ref, *sig, *n, *tau, *k, *eps, *budget, *out, *recPath)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	if *budget == 0 {
		cp, err := g.CriticalPath()
		if err != nil {
			return err
		}
		*budget = cp + cp/10 + 1
	}
	observeGraph(ctx, g)
	cfg := schedwm.Config{Tau: *tau, K: *k, Epsilon: *eps, Budget: *budget}
	wms, err := engine.EmbedManyCtx(ctx, g, prng.Signature(*sig), cfg, *n)
	if err != nil {
		return err
	}
	rf := recordFile{Signature: []byte(*sig)}
	edges := 0
	for _, wm := range wms {
		rf.Records = append(rf.Records, lwmapi.FromSchedRecord(wm.Record()))
		edges += len(wm.Edges)
	}
	fmt.Printf("embedded %d watermarks, %d temporal edges\n", len(wms), edges)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := cdfg.Write(f, g); err != nil {
			return err
		}
	}
	if *recPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*recPath, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	in := fs.String("in", "", "design file (may contain temporal edges)")
	out := fs.String("out", "", "schedule output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return sched.WriteSchedule(w, g, s)
}

// parseSchedule reads a schedule file in the text format shared with the
// lwmd daemon (see sched.ParseSchedule).
func parseSchedule(g *cdfg.Graph, path string) (*sched.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sched.ParseSchedule(g, f)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	in := fs.String("in", "", "suspect design file")
	schedPath := fs.String("schedule", "", "suspect schedule file")
	recPath := fs.String("record", "", "detection record file (JSON)")
	workers := fs.Int("workers", 1, "parallel detection workers (output is identical for any value)")
	remote := fs.String("remote", "", "lwmd daemon address (empty: detect in-process)")
	apiKeyFlag(fs)
	ref := fs.String("ref", "", "design registry reference in place of -in (remote only; see lwm design put)")
	fam := familyFlag(fs)
	trace := fs.Bool("trace", false, "print the span tree (engine stages, oracle recomputes, remote attempts) to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkRefFlag(*ref, *remote); err != nil {
		return err
	}
	ctx, finishTrace := traceCtx(*trace)
	defer finishTrace()
	if f := lwmapi.CanonicalFamily(*fam); f != lwmapi.FamilySched {
		return familyDetect(ctx, f, *remote, *in, *ref, *schedPath, *recPath, *workers)
	}
	if *remote != "" {
		return remoteDetect(ctx, *remote, *in, *ref, *schedPath, *recPath, *workers)
	}
	// The record file's family label is checked before the suspect parses:
	// a family-labeled record file means the suspect artifacts are that
	// family's formats, and "pass -family" beats a codec parse error.
	data, err := os.ReadFile(*recPath)
	if err != nil {
		return err
	}
	var rf recordFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return err
	}
	if fam := lwmapi.CanonicalFamily(rf.Family); fam != lwmapi.FamilySched {
		return fmt.Errorf("record file is for family %q; pass -family %s", rf.Family, rf.Family)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	s, err := parseSchedule(g, *schedPath)
	if err != nil {
		return err
	}
	observeGraph(ctx, g)
	// All records scan on the pool; the report below walks the results in
	// record order, so the output matches a sequential scan byte for byte.
	batch := engine.DetectBatchCtx(ctx, []engine.Suspect{{Graph: g, Schedule: s}}, lwmapi.SchedRecords(rf.Records), *workers)
	found := 0
	for i := range rf.Records {
		det, err := batch[0][i].Det, batch[0][i].Err
		if err != nil {
			return err
		}
		if det.Found {
			found++
			fmt.Printf("watermark %d: FOUND at root %s (%d constraints, Pc %v)\n",
				i, g.Node(det.Matches[0].Root).Name, det.Best.Total, det.Best.Pc)
		} else {
			fmt.Printf("watermark %d: not found (best %d/%d)\n",
				i, det.Best.Satisfied, det.Best.Total)
		}
	}
	fmt.Printf("%d of %d watermarks detected\n", found, len(rf.Records))
	if found == 0 {
		flushTrace(ctx)
		os.Exit(3)
	}
	return nil
}

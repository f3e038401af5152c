// Command lwm is the local-watermarking toolchain driver:
//
//	lwm gen -design <name> -o design.cdfg
//	    write one of the built-in benchmark designs to a file
//	lwm info -in design.cdfg
//	    print design statistics (ops, critical path, laxity profile)
//	lwm embed [-family F] -in design.cdfg -sig <signature> [-n N] [-tau T]
//	          [-k K] [-epsilon E] [-budget B] -out marked.cdfg
//	          [-solution marked.sol] -record rec.json
//	    embed watermarks; writes the marked design, the marked solution
//	    (tmwm, gcolor) and the detection record
//	lwm schedule -in marked.cdfg -out sched.txt
//	    produce a schedule honoring the embedded temporal constraints
//	lwm detect [-family F] -in suspect.cdfg -schedule sched.txt -record rec.json
//	    scan a suspect design and its solution for the recorded watermarks
//	lwm verify [-family F] -in suspect.cdfg -schedule sched.txt -sig <signature> ...
//	    adjudicate an ownership claim by re-deriving the constraints from
//	    the claimed signature (no record trusted)
//	lwm families
//	    list the watermark families (sched, tmwm, gcolor) with their
//	    default mark parameters
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
// A mark flag left at 0 (-n, -tau, -k, -epsilon, -budget) takes the
// family's default, as lwm families lists it. embed, detect, and verify
// run every family through one path (see mark.go), and also accept
// -remote <addr>: the work then runs on a lwmd daemon through the
// resilient lwmclient (retries, circuit breaker) with byte-identical
// printed output, so scripts can switch between local and remote without
// changing their parsing.
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
	"flag"
	"fmt"
	"os"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/obs"
	"localwm/internal/sched"
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

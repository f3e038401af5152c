// Benchmark harness: one testing.B benchmark per
// paper table/figure plus ablation benches for the design choices called
// out in DESIGN.md §5. Benchmarks report domain metrics (Pc exponents,
// overhead percentages, module counts) via b.ReportMetric next to the
// usual ns/op, so `go test -bench=. -benchmem` regenerates the numbers
// EXPERIMENTS.md records.
package localwm

import (
	"fmt"
	"testing"

	"localwm/internal/attack"
	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/gcolor"
	"localwm/internal/order"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/stats"
	"localwm/internal/tmatch"
	"localwm/internal/tmwm"
	"localwm/internal/vliw"
)

var benchSig = prng.Signature("bench-signature")

// BenchmarkTable1OperationScheduling regenerates one Table I cell pair per
// application: Pc exponent and VLIW cycle overhead at 2% of nodes
// constrained.
func BenchmarkTable1OperationScheduling(b *testing.B) {
	machine := vliw.Default()
	for _, row := range designs.Table1() {
		row := row
		b.Run(row.App.Name, func(b *testing.B) {
			var pcExp, ohPct float64
			for i := 0; i < b.N; i++ {
				g := designs.Layered(row.App.Cfg)
				cp, err := g.CriticalPath()
				if err != nil {
					b.Fatal(err)
				}
				cfg := schedwm.Config{
					Tau: 24, K: 6, TauPrime: 7, Epsilon: 0.25,
					Budget: cp + cp/10 + 2, OpWeight: machine.OpWeight(),
					MaxOrderProb: 0.5,
				}
				target := len(g.Computational()) / 50 // 2%
				need := (target+cfg.K-1)/cfg.K*3 + 1
				wms, err := schedwm.EmbedMany(g, benchSig, cfg, need)
				if err != nil {
					b.Fatal(err)
				}
				pc := stats.LogProb(0)
				edges := 0
				var used []*schedwm.Watermark
				for _, wm := range wms {
					if edges >= target {
						break
					}
					p, err := schedwm.ApproxPc(g, wm, cfg.Budget)
					if err != nil {
						b.Fatal(err)
					}
					pc = pc.Mul(p)
					edges += len(wm.Edges)
					used = append(used, wm)
				}
				baseline := designs.Layered(row.App.Cfg)
				for _, wm := range used {
					if _, err := schedwm.Materialize(g, wm); err != nil {
						b.Fatal(err)
					}
				}
				g.ClearTemporalEdges()
				oh, _, _, err := machine.Overhead(baseline, g, nil)
				if err != nil {
					b.Fatal(err)
				}
				pcExp = pc.Exponent10()
				ohPct = oh * 100
			}
			b.ReportMetric(-pcExp, "pc-exp10@2%")
			b.ReportMetric(ohPct, "overhead%@2%")
		})
	}
}

// BenchmarkTable2TemplateMatching regenerates one Table II row pair per
// design: module-count overhead at the tight budget and at twice that.
func BenchmarkTable2TemplateMatching(b *testing.B) {
	lib := tmatch.StandardLibrary()
	for _, row := range designs.Table2() {
		row := row
		b.Run(row.Name, func(b *testing.B) {
			g := row.Build()
			cp, err := g.CriticalPath()
			if err != nil {
				b.Fatal(err)
			}
			tight := cp
			if row.StepsPerOp > 0 {
				tight = int(row.StepsPerOp * float64(len(g.Computational())))
			}
			base, err := tmatch.GreedyCover(g, lib, tmatch.Constraints{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			z := int(row.PaperEnfPct / 100 * float64(len(base.Matchings)))
			if z < 1 {
				z = 1
			}
			var oh [2]float64
			for i := 0; i < b.N; i++ {
				for bi, budget := range [2]int{tight, 2 * tight} {
					wm, err := tmwm.Embed(g, benchSig, tmwm.Config{
						Z: z, Epsilon: 0.25, WholeGraph: true, Lib: lib, Budget: budget,
					})
					if err != nil {
						b.Fatal(err)
					}
					enforced, cons := wm.Constraints()
					marked, err := tmatch.GreedyCover(g, lib, cons, enforced)
					if err != nil {
						b.Fatal(err)
					}
					ba, err := tmatch.Allocate(g, lib, base, budget, nil)
					if err != nil {
						b.Fatal(err)
					}
					ma, err := tmatch.Allocate(g, lib, marked, budget, wm.PPO)
					if err != nil {
						b.Fatal(err)
					}
					oh[bi] = float64(ma.Modules-ba.Modules) / float64(ba.Modules) * 100
				}
			}
			b.ReportMetric(oh[0], "overhead%@B")
			b.ReportMetric(oh[1], "overhead%@2B")
		})
	}
}

// BenchmarkFig3ExactEnumeration regenerates the Fig. 3 experiment: the
// exact schedule counts of the IIR output cone with and without the
// watermark constraints.
func BenchmarkFig3ExactEnumeration(b *testing.B) {
	full := designs.FourthOrderParallelIIR()
	_, cone := designs.IIRSubtree(full)
	sub, err := full.InducedSubgraph(cone)
	if err != nil {
		b.Fatal(err)
	}
	tmpl := sub.Graph
	root := tmpl.MustNode("A7")
	cp, err := tmpl.CriticalPath()
	if err != nil {
		b.Fatal(err)
	}
	var total, withWM uint64
	for i := 0; i < b.N; i++ {
		g := tmpl.Clone()
		g.ClearTemporalEdges()
		cfg := schedwm.Config{Tau: 16, K: 5, TauPrime: 2, Epsilon: 0.15,
			Budget: cp + 1, Root: &root}
		if _, err := schedwm.Embed(g, benchSig, cfg); err != nil {
			b.Fatal(err)
		}
		withWM, total, err = schedwm.ExactPc(g, cp+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total), "schedules(paper:166)")
	b.ReportMetric(float64(withWM), "marked(paper:15)")
}

// BenchmarkFig4MatchEnumeration regenerates the Fig. 4 experiment: the
// alternative-covering counts of the enforced matchings on the IIR.
func BenchmarkFig4MatchEnumeration(b *testing.B) {
	g := designs.FourthOrderParallelIIR()
	lib := tmatch.StandardLibrary()
	cp, err := g.CriticalPath()
	if err != nil {
		b.Fatal(err)
	}
	var pcExp float64
	for i := 0; i < b.N; i++ {
		wm, err := tmwm.Embed(g, benchSig, tmwm.Config{
			Z: 3, Epsilon: 0.2, WholeGraph: true, Lib: lib, Budget: 2 * cp})
		if err != nil {
			b.Fatal(err)
		}
		pc, err := tmwm.ApproxPc(g, lib, wm)
		if err != nil {
			b.Fatal(err)
		}
		pcExp = pc.Exponent10()
	}
	b.ReportMetric(-pcExp, "pc-exp10")
}

// BenchmarkTamperResistance regenerates the in-text attack analysis: the
// fraction of a marked schedule an attacker must disturb before the
// residual evidence weakens to Pc >= 1e-3.
func BenchmarkTamperResistance(b *testing.B) {
	var fraction float64
	for i := 0; i < b.N; i++ {
		g := designs.Layered(designs.MediaBench()[1].Cfg)
		cp, err := g.CriticalPath()
		if err != nil {
			b.Fatal(err)
		}
		cfg := schedwm.Config{Tau: 24, K: 6, TauPrime: 7, Epsilon: 0.25, Budget: cp + 8}
		wms, err := schedwm.EmbedMany(g, benchSig, cfg, 5)
		if err != nil {
			b.Fatal(err)
		}
		var edges []cdfg.Edge
		for _, wm := range wms {
			edges = append(edges, wm.Edges...)
		}
		s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
		if err != nil {
			b.Fatal(err)
		}
		s.Budget += 6
		shipped := g.Clone()
		shipped.ClearTemporalEdges()
		bs := prng.MustBitstream([]byte(fmt.Sprintf("attacker-%d", i)))
		moves, _, err := attack.MovesToErase(shipped, s, edges, 1e-3, 50000, bs)
		if err != nil {
			b.Fatal(err)
		}
		fraction = float64(moves) / float64(len(g.Computational()))
	}
	b.ReportMetric(fraction, "moves/op-to-erase")
}

// BenchmarkOrderingCriteria (ablation): how far the C2/C3 refinement must
// look to separate nodes, and whether the ordering becomes canonical, as
// the refinement depth cap varies.
func BenchmarkOrderingCriteria(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[2].Cfg)
	for _, depth := range []int{1, 2, 4, 8} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			canonical := 0.0
			for i := 0; i < b.N; i++ {
				res, err := order.Global(g, depth)
				if err != nil {
					b.Fatal(err)
				}
				if res.Canonical {
					canonical = 1
				} else {
					canonical = 0
				}
			}
			b.ReportMetric(canonical, "canonical")
		})
	}
}

// BenchmarkEpsilonSweep (ablation): the laxity margin trades proof
// strength against schedule disturbance; sweep ε and report the proof
// exponent obtained at fixed K.
func BenchmarkEpsilonSweep(b *testing.B) {
	for _, eps := range []float64{0.1, 0.25, 0.5, 0.75} {
		eps := eps
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			var pcExp float64
			embedded := 0.0
			for i := 0; i < b.N; i++ {
				g := designs.Layered(designs.MediaBench()[5].Cfg)
				cp, err := g.CriticalPath()
				if err != nil {
					b.Fatal(err)
				}
				cfg := schedwm.Config{Tau: 24, K: 6, TauPrime: 7, Epsilon: eps, Budget: cp + 8}
				wms, err := schedwm.EmbedMany(g, benchSig, cfg, 4)
				if err != nil {
					embedded = 0
					continue
				}
				embedded = float64(len(wms))
				pc := stats.LogProb(0)
				for _, wm := range wms {
					p, err := schedwm.ApproxPc(g, wm, cfg.Budget)
					if err != nil {
						b.Fatal(err)
					}
					pc = pc.Mul(p)
				}
				pcExp = pc.Exponent10()
			}
			b.ReportMetric(-pcExp, "pc-exp10")
			b.ReportMetric(embedded, "watermarks")
		})
	}
}

// BenchmarkKSweep (ablation): proof strength versus K, the per-watermark
// constraint count. The locality size is held constant so K is the only
// variable; the achieved edge count is reported because a locality
// saturates below large K targets.
func BenchmarkKSweep(b *testing.B) {
	for _, k := range []int{2, 4, 8, 16} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var pcExp, edges float64
			for i := 0; i < b.N; i++ {
				g := designs.Layered(designs.MediaBench()[5].Cfg)
				cp, err := g.CriticalPath()
				if err != nil {
					b.Fatal(err)
				}
				cfg := schedwm.Config{Tau: 48, K: k, TauPrime: 10, Epsilon: 0.25,
					Budget: cp + 8, MaxOrderProb: 0.5}
				cfg.Domain.IncludeNum, cfg.Domain.IncludeDen = 3, 4
				wm, err := schedwm.Embed(g, benchSig, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pc, err := schedwm.ApproxPc(g, wm, cfg.Budget)
				if err != nil {
					b.Fatal(err)
				}
				pcExp = pc.Exponent10()
				edges = float64(len(wm.Edges))
			}
			b.ReportMetric(-pcExp, "pc-exp10")
			b.ReportMetric(edges, "edges")
		})
	}
}

// BenchmarkCoverers (ablation): greedy versus exact covering quality and
// cost on the exactly-solvable IIR.
func BenchmarkCoverers(b *testing.B) {
	g := designs.FourthOrderParallelIIR()
	lib := tmatch.StandardLibrary()
	b.Run("greedy", func(b *testing.B) {
		var size float64
		for i := 0; i < b.N; i++ {
			cov, err := tmatch.GreedyCover(g, lib, tmatch.Constraints{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			size = float64(len(cov.Matchings))
		}
		b.ReportMetric(size, "matchings")
	})
	b.Run("exact", func(b *testing.B) {
		var size float64
		for i := 0; i < b.N; i++ {
			cov, err := tmatch.ExactCover(g, lib, tmatch.Constraints{}, nil, 30)
			if err != nil {
				b.Fatal(err)
			}
			size = float64(len(cov.Matchings))
		}
		b.ReportMetric(size, "matchings")
	})
}

// BenchmarkDetectScan measures the detector's full-design scan cost — the
// practical price of the "visit each node as a candidate root" procedure.
func BenchmarkDetectScan(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[4].Cfg) // 1755 ops
	cp, err := g.CriticalPath()
	if err != nil {
		b.Fatal(err)
	}
	cfg := schedwm.Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + 6}
	wm, err := schedwm.Embed(g, benchSig, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		b.Fatal(err)
	}
	shipped := g.Clone()
	shipped.ClearTemporalEdges()
	rec := wm.Record()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := schedwm.Detect(shipped, s, rec)
		if err != nil {
			b.Fatal(err)
		}
		if !det.Found {
			b.Fatal("watermark lost")
		}
	}
}

// Substrate micro-benchmarks.

func BenchmarkListSchedule(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[6].Cfg) // 1422 ops
	res := sched.Resources{}
	res[sched.FUALU] = 8
	res[sched.FUMul] = 4
	res[sched.FUMem] = 4
	res[sched.FUBr] = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.ListSchedule(g, sched.ListOpts{Res: res}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFDSchedule(b *testing.B) {
	g := designs.WaveletFilter()
	cp, err := g.CriticalPath()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.FDSchedule(g, sched.FDSOpts{Budget: 2 * cp}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVLIWCompile(b *testing.B) {
	m := vliw.Default()
	g := designs.Layered(designs.MediaBench()[7].Cfg) // 1372 ops
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Compile(g, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmbedSchedulingWatermark(b *testing.B) {
	tmplCfg := designs.MediaBench()[3].Cfg
	g := designs.Layered(tmplCfg)
	cp, err := g.CriticalPath()
	if err != nil {
		b.Fatal(err)
	}
	cfg := schedwm.Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := designs.Layered(tmplCfg)
		if _, err := schedwm.Embed(fresh, benchSig, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyCoverLarge(b *testing.B) {
	g := designs.LongEchoCanceler()
	lib := tmatch.StandardLibrary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmatch.GreedyCover(g, lib, tmatch.Constraints{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBindingAffinity (ablation): interconnect switches with and
// without producer-affinity in functional-unit binding.
func BenchmarkBindingAffinity(b *testing.B) {
	g := designs.LongEchoCanceler()
	res := sched.Resources{}
	res[sched.FUALU] = 2
	res[sched.FUMul] = 3
	s, err := sched.ListSchedule(g, sched.ListOpts{Res: res})
	if err != nil {
		b.Fatal(err)
	}
	for _, affinity := range []bool{false, true} {
		affinity := affinity
		b.Run(fmt.Sprintf("affinity=%v", affinity), func(b *testing.B) {
			switches := 0.0
			for i := 0; i < b.N; i++ {
				bind, err := sched.BindFUs(g, s, affinity)
				if err != nil {
					b.Fatal(err)
				}
				switches = float64(bind.Switches)
			}
			b.ReportMetric(switches, "switches")
		})
	}
}

// BenchmarkGraphColoringWatermark: the paradigm's third instantiation —
// embed+detect cost and proof strength on a coloring instance.
func BenchmarkGraphColoringWatermark(b *testing.B) {
	g, err := gcolor.RandomGraph("bench", 300, 1, 14)
	if err != nil {
		b.Fatal(err)
	}
	var pcExp float64
	for i := 0; i < b.N; i++ {
		marked := g.Clone()
		wm, err := gcolor.Embed(marked, benchSig, gcolor.Config{Tau: 40, K: 60})
		if err != nil {
			b.Fatal(err)
		}
		col := gcolor.DSATUR(marked)
		det, err := gcolor.Detect(g, col, wm.Record())
		if err != nil {
			b.Fatal(err)
		}
		if !det.Found {
			b.Fatal("coloring watermark lost")
		}
		pcExp = det.Pc.Exponent10()
	}
	b.ReportMetric(-pcExp, "pc-exp10")
}

// BenchmarkCacheLocality (ablation): miss rate of the realistic address
// stream versus the uniform-hash default on the 8-KB cache.
func BenchmarkCacheLocality(b *testing.B) {
	m := vliw.Default()
	g := designs.Layered(designs.MediaBench()[2].Cfg) // epic: memory-heavy
	cases := []struct {
		name string
		addr vliw.AddressFunc
	}{
		{"uniform", nil},
		{"realistic", designs.AddressMap(g, 0)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var missPct float64
			for i := 0; i < b.N; i++ {
				r, err := m.Compile(g, c.addr, false)
				if err != nil {
					b.Fatal(err)
				}
				if r.CacheHits+r.CacheMiss > 0 {
					missPct = float64(r.CacheMiss) / float64(r.CacheHits+r.CacheMiss) * 100
				}
			}
			b.ReportMetric(missPct, "miss%")
		})
	}
}

// BenchmarkScale10k pushes the full pipeline through a 10 000-operation
// design: embed 20 local watermarks, schedule, and detect one — the
// throughput story a production adopter cares about.
func BenchmarkScale10k(b *testing.B) {
	cfg := designs.LayeredConfig{
		Name: "scale10k", Ops: 10000, Width: 24, Inputs: 32,
		Mix: designs.OpMix{Add: 35, Mul: 15, Logic: 15, Shift: 10, Cmp: 5, Load: 12, Store: 5, Branch: 3},
	}
	for i := 0; i < b.N; i++ {
		g := designs.Layered(cfg)
		cp, err := g.CriticalPath()
		if err != nil {
			b.Fatal(err)
		}
		wms, err := schedwm.EmbedMany(g, benchSig, schedwm.Config{
			Tau: 24, K: 6, TauPrime: 7, Epsilon: 0.25, Budget: cp + cp/10 + 2}, 20)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
		if err != nil {
			b.Fatal(err)
		}
		shipped := g.Clone()
		shipped.ClearTemporalEdges()
		det, err := schedwm.Detect(shipped, s, wms[0].Record())
		if err != nil {
			b.Fatal(err)
		}
		if !det.Found {
			b.Fatal("watermark lost at scale")
		}
		b.ReportMetric(float64(len(wms)), "watermarks")
	}
}

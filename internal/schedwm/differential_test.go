package schedwm

import (
	"reflect"
	"slices"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/vliw"
)

// registeredDesigns builds every design the repository ships: the Table I
// (MediaBench-size layered) and Table II applications, the fourth-order
// IIR of the paper's example, and the transform kernels.
func registeredDesigns() map[string]*cdfg.Graph {
	out := map[string]*cdfg.Graph{
		"iir4": designs.FourthOrderParallelIIR(),
		"fft8": designs.FFTStage(8),
		"dct8": designs.DCT8(),
	}
	for _, row := range designs.Table2() {
		out[row.Name] = row.Build()
	}
	for _, row := range designs.Table1() {
		out[row.App.Name] = designs.Layered(row.App.Cfg)
	}
	return out
}

// familyConfig is the scheduling family's default configuration for g:
// τ 20, K 4, ε 0.25 and a budget of the critical path + 10% + 1.
func familyConfig(t testing.TB, g *cdfg.Graph, weight cdfg.WeightFunc) Config {
	t.Helper()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	return Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + cp/10 + 1, OpWeight: weight}
}

// TestPrepareMatchesReference compares the oracle-backed Prepare with the
// former uncached one on every registered design, under unit weights and
// a machine latency table, with the budget given and defaulted, on a cold
// oracle and on one the family layer warmed.
func TestPrepareMatchesReference(t *testing.T) {
	latency := vliw.Default().OpWeight()
	for name, g := range registeredDesigns() {
		for _, weight := range []cdfg.WeightFunc{nil, latency} {
			for _, budget := range []bool{true, false} {
				cfg := familyConfig(t, g, weight)
				if !budget {
					cfg.Budget = 0
				}
				want, wantErr := prepareReference(g, cfg)
				for _, warm := range []bool{false, true} {
					c := g.Clone()
					if warm {
						if _, err := c.Oracle().CriticalPathW(nil); err != nil {
							t.Fatal(err)
						}
					}
					got, err := Prepare(c, cfg)
					if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
						t.Fatalf("%s (weighted %v, budget %v, warm %v): Prepare = %+v, %v; reference %+v, %v",
							name, weight != nil, budget, warm, got, err, want, wantErr)
					}
				}
			}
		}
	}
}

// TestEncodePassesMatchReference embeds two watermarks at eligible roots
// of every registered design — every root of the designs up to 200 nodes,
// 12 spread over the roots of the larger ones — and at every watermark
// step (each prefix of a watermark's edges pending, on the graph holding
// the earlier watermark's) compares the passes the encoder and the
// speculation check run with the code they replaced: the weighted longest
// paths, the cycle and implication tests over consecutive members of the
// selection T”, and the walks from the pending edges' endpoints.
func TestEncodePassesMatchReference(t *testing.T) {
	latency := vliw.Default().OpWeight()
	for name, g := range registeredDesigns() {
		roots := domain.EligibleRoots(g)
		if g.Len() > 200 {
			var spread []cdfg.NodeID
			for i := 0; i < 12; i++ {
				spread = append(spread, roots[i*len(roots)/12])
			}
			roots = spread
		}
		for _, weight := range []cdfg.WeightFunc{nil, latency} {
			cfg := familyConfig(t, g, weight)
			unitW := 1
			if weight != nil {
				unitW = weight(cdfg.OpUnit)
			}
			for _, root := range roots {
				cfg.Root = &root
				wms, err := EmbedMany(g.Clone(), prng.Signature("differential"), cfg, 2)
				if err != nil {
					continue // no placement at this root
				}
				cur := g.Clone()
				for _, wm := range wms {
					checkSteps(t, name, cur, wm, weight, unitW)
					if err := CommitEdges(cur, wm); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// checkSteps runs the comparisons of TestEncodePassesMatchReference for
// one watermark on g.
func checkSteps(t *testing.T, name string, g *cdfg.Graph, wm *Watermark, weight cdfg.WeightFunc, unitW int) {
	t.Helper()
	var ps cdfg.PathScratch
	var walk, fwd, bwd cdfg.Reach
	for k := 0; k <= len(wm.Edges); k++ {
		prefix := wm.Edges[:k]
		to, from, err := g.WeightedLongest(&ps, weight, unitW, prefix)
		refTo, refFrom, refErr := pathsWithPending(g, weight, prefix, unitW)
		if err != nil || refErr != nil || !slices.Equal(to, refTo) || !slices.Equal(from, refFrom) {
			t.Fatalf("%s root %d step %d: WeightedLongest = %v, %v, %v; reference %v, %v, %v",
				name, wm.Root, k, to, from, err, refTo, refFrom, refErr)
		}
		for i := 0; i+1 < len(wm.TSel); i++ {
			a, b := wm.TSel[i], wm.TSel[i+1]
			for _, p := range [][2]cdfg.NodeID{{a, b}, {b, a}} {
				if got, want := walk.Path(g, prefix, p[0], p[1]), pathConsidering(g, prefix, p[0], p[1]); got != want {
					t.Fatalf("%s root %d step %d: Path(%d, %d) = %v, reference %v", name, wm.Root, k, p[0], p[1], got, want)
				}
			}
		}
		// The speculation check walks from a delta's endpoints over the
		// spec's pending edges; here the prefix plays the delta.
		var heads, tails []cdfg.NodeID
		for _, e := range prefix {
			heads, tails = append(heads, e.To), append(tails, e.From)
		}
		fwd.Walk(g, wm.Edges, false, cdfg.None, heads...)
		bwd.Walk(g, wm.Edges, true, cdfg.None, tails...)
		wantFwd := reachFromDelta(g, wm.Edges, prefix, false)
		wantBwd := reachFromDelta(g, wm.Edges, prefix, true)
		for v := cdfg.NodeID(0); int(v) < g.Len(); v++ {
			if fwd.Reached(v) != wantFwd[v] || bwd.Reached(v) != wantBwd[v] {
				t.Fatalf("%s root %d step %d: node %d walks %v/%v, reference %v/%v",
					name, wm.Root, k, v, fwd.Reached(v), bwd.Reached(v), wantFwd[v], wantBwd[v])
			}
		}
	}
}

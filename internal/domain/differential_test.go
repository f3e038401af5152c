package domain

import (
	"fmt"
	"reflect"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
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

// TestSelectMatchesReference compares Select with the map-based reference
// — same T, To and ordering, and the same bitstream position afterwards —
// at every root PickRoot may return on every registered design, under the
// protocols' default and a tight tree cap.
func TestSelectMatchesReference(t *testing.T) {
	cfgs := []Config{{Tau: 20}, {Tau: 8, MaxTreeSize: 12, IncludeNum: 3, IncludeDen: 4}}
	for name, g := range registeredDesigns() {
		name, g := name, g
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, v := range g.Computational() {
				if !Eligible(g, v) {
					continue
				}
				for ci, cfg := range cfgs {
					seed := []byte(fmt.Sprintf("%s/%d/%d", name, v, ci))
					bsGot, bsWant := prng.MustBitstream(seed), prng.MustBitstream(seed)
					got, err := Select(g, bsGot, v, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refSelect(g, bsWant, v, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.T, want.T) || !reflect.DeepEqual(got.To, want.To) ||
						!reflect.DeepEqual(got.Order, want.Order) {
						t.Fatalf("root %s cfg %d: T=%v To=%v, reference T=%v To=%v",
							g.Node(v).Name, ci, got.T, got.To, want.T, want.To)
					}
					if a, b := bsGot.Intn(1<<30), bsWant.Intn(1<<30); a != b {
						t.Fatalf("root %s cfg %d: bitstream diverged after Select", g.Node(v).Name, ci)
					}
				}
			}
		})
	}
}

// TestAppendRootFingerprintMatchesReference checks the allocation-free
// fingerprint, and RootFingerprint built on it, against the fmt-based
// reference text at every node of every registered design.
func TestAppendRootFingerprintMatchesReference(t *testing.T) {
	var buf []byte
	for name, g := range registeredDesigns() {
		for v := 0; v < g.Len(); v++ {
			id := cdfg.NodeID(v)
			want := refRootFingerprint(g, id)
			buf = AppendRootFingerprint(buf[:0], g, id)
			if string(buf) != want || RootFingerprint(g, id) != want {
				t.Fatalf("%s node %s: fingerprint %q / %q, reference %q",
					name, g.Node(id).Name, buf, RootFingerprint(g, id), want)
			}
		}
	}
	// Wide fan-in spills past the fixed-size op buffer.
	g := cdfg.New(12)
	var ins []cdfg.NodeID
	for i := 0; i < 11; i++ {
		ins = append(ins, g.AddNode(fmt.Sprintf("i%d", i), cdfg.Op(i%5)))
	}
	sink := g.AddNode("sink", cdfg.OpAdd)
	for _, u := range ins {
		g.MustAddEdge(u, sink, cdfg.DataEdge)
	}
	if got, want := string(AppendRootFingerprint(nil, g, sink)), refRootFingerprint(g, sink); got != want {
		t.Fatalf("wide fan-in fingerprint %q, reference %q", got, want)
	}
}

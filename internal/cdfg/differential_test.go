package cdfg_test

import (
	"bytes"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
	"localwm/internal/schedwm"
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

// TestPrecedenceMatchesReferenceOnDesigns replays, on every registered
// design, the watermark embedding the scheduling family performs and
// checks the precedence passes against their references at every step:
// on the graph holding the earlier watermarks' edges, with each prefix of
// the watermark's own edges pending, over the candidate pairs the encoder
// tests (every ordered pair of its selection T”). It runs unit weights
// and a machine latency table.
func TestPrecedenceMatchesReferenceOnDesigns(t *testing.T) {
	latency := vliw.Default().OpWeight()
	for name, g := range registeredDesigns() {
		t.Run(name, func(t *testing.T) {
			cp, err := g.CriticalPath()
			if err != nil {
				t.Fatal(err)
			}
			for _, weight := range []cdfg.WeightFunc{nil, latency} {
				cfg := schedwm.Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + cp/10 + 1, OpWeight: weight}
				wms, err := schedwm.EmbedMany(g.Clone(), prng.Signature("precedence"), cfg, 3)
				if err != nil {
					continue // no locality fits; the steps below need watermarks
				}
				tempW := 1
				if weight != nil {
					tempW = weight(cdfg.OpUnit)
				}
				cur := g.Clone()
				for _, wm := range wms {
					var pairs [][2]cdfg.NodeID
					for _, a := range wm.TSel {
						for _, b := range wm.TSel {
							pairs = append(pairs, [2]cdfg.NodeID{a, b})
						}
					}
					cdfg.CheckPrecedence(t, cur, wm.Edges, weight, tempW, pairs)
					for _, e := range wm.Edges {
						cur.MustAddEdge(e.From, e.To, cdfg.TemporalEdge)
					}
				}
			}
			// The codec round trip of the design is byte-stable.
			var buf bytes.Buffer
			if err := cdfg.Write(&buf, g); err != nil {
				t.Fatal(err)
			}
			back, err := cdfg.Parse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if back.String() != buf.String() {
				t.Fatal("Write∘Parse changed the design text")
			}
		})
	}
}

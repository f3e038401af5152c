package cdfg_test

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// benchGraphs are the Long Echo Canceler (a node with 256 successors) and
// a Table I-size graph (PGP, 1755 operations), each carrying eight
// temporal edges drawn forward along its topological order, as a marked
// design does.
func benchGraphs(b *testing.B) []struct {
	name string
	g    *cdfg.Graph
} {
	b.Helper()
	gs := []struct {
		name string
		g    *cdfg.Graph
	}{
		{"long-echo-canceler", designs.LongEchoCanceler()},
		{"table1-pgp", designs.Layered(designs.MediaBench()[4].Cfg)},
	}
	for _, c := range gs {
		order, err := c.g.TopoOrder()
		if err != nil {
			b.Fatal(err)
		}
		var comp []cdfg.NodeID
		for _, v := range order {
			if c.g.Node(v).Op.IsComputational() {
				comp = append(comp, v)
			}
		}
		for i := 0; i < 8; i++ {
			from := comp[(i+1)*len(comp)/10]
			to := comp[(i+1)*len(comp)/10+len(comp)/20]
			if err := c.g.AddEdge(from, to, cdfg.TemporalEdge); err != nil {
				b.Fatal(err)
			}
		}
	}
	return gs
}

func BenchmarkTopoOrder(b *testing.B) {
	for _, c := range benchGraphs(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.g.TopoOrder(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTemporalWeighted times the uncached weighted longest-path
// computation behind PathOracle.TemporalWeighted, with a fresh scratch
// per call as on an oracle miss.
func BenchmarkTemporalWeighted(b *testing.B) {
	for _, c := range benchGraphs(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.g.WeightedLongest(&cdfg.PathScratch{}, nil, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

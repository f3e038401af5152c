package order_test

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/order"
	"localwm/internal/prng"
)

// BenchmarkOrder times one canonical ordering of a candidate tree T_o, as
// domain.Select derives it (τ = 20), cycling through the roots of:
//
//   - table1-fp-roots: PGP (Table I, 1755 ops, layered), every root whose
//     fingerprint matches the root PickRoot draws for signature "bench" —
//     the roots a detect scan for that record orders;
//   - table2-picked-roots: the D/A converter (Table II), 16 roots drawn by
//     PickRoot as embedding draws them.
//
// Run with -benchmem; ns/op and allocs/op are per ordering.
func BenchmarkOrder(b *testing.B) {
	for _, c := range []struct {
		name  string
		g     *cdfg.Graph
		roots func(*cdfg.Graph) []cdfg.NodeID
	}{
		{"table1-fp-roots", designs.Layered(designs.MediaBench()[4].Cfg), fpRoots},
		{"table2-picked-roots", designs.DAConverter(), pickedRoots},
	} {
		roots := c.roots(c.g)
		trees := make([][]cdfg.NodeID, len(roots))
		for i, root := range roots {
			d, err := domain.Select(c.g, prng.MustBitstream(prng.Signature("bench")), root, domain.Config{Tau: 20})
			if err != nil {
				b.Fatal(err)
			}
			trees[i] = cdfg.SortedIDs(d.To)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % len(roots)
				if _, err := order.Order(c.g, roots[j], trees[j], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fpRoots returns every node whose root fingerprint matches that of the
// root PickRoot draws for signature "bench"; each is a root a detect scan
// for a record made there derives a domain at.
func fpRoots(g *cdfg.Graph) []cdfg.NodeID {
	pick, err := domain.PickRoot(g, prng.MustBitstream(prng.Signature("bench")))
	if err != nil {
		panic(err)
	}
	fp := domain.RootFingerprint(g, pick)
	var roots []cdfg.NodeID
	for v := 0; v < g.Len(); v++ {
		if domain.RootFingerprint(g, cdfg.NodeID(v)) == fp {
			roots = append(roots, cdfg.NodeID(v))
		}
	}
	return roots
}

// pickedRoots returns 16 roots PickRoot draws in turn from the "bench"
// bitstream.
func pickedRoots(g *cdfg.Graph) []cdfg.NodeID {
	bs := prng.MustBitstream(prng.Signature("bench"))
	roots := make([]cdfg.NodeID, 16)
	for i := range roots {
		root, err := domain.PickRoot(g, bs)
		if err != nil {
			panic(err)
		}
		roots[i] = root
	}
	return roots
}

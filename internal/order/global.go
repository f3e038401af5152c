package order

import (
	"fmt"

	"localwm/internal/cdfg"
)

// Global ranks every computational node of g without reference to a
// subtree root. It is the whole-design analogue of Order, used when a
// protocol is applied with T = CDFG (the configuration of the paper's
// template-matching experiments): criterion C1's level is taken from the
// virtual sink side (the longest data path from the node to any output,
// exactly what L_i degenerates to when the root is the whole design's
// sink), and C2/C3 refine ties with growing-distance fan-in statistics as
// in Order.
func Global(g *cdfg.Graph, maxDepth int) (*Result, error) {
	nodes := g.Computational()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("order: graph has no computational nodes")
	}
	if maxDepth <= 0 {
		// Refinement converges within a few hops on real designs; capping
		// the depth keeps Global near-linear on MediaBench-scale graphs.
		// Residual ties are reported via Result.Canonical.
		maxDepth = 8
		if len(nodes) < maxDepth {
			maxDepth = len(nodes)
		}
	}
	from, err := g.LongestFrom(cdfg.PathOpts{})
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.rank(g, nodes, from, maxDepth)
}

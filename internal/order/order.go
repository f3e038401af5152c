// Package order implements the canonical node-ordering routine of the
// domain-identification step (paper §IV-A). Watermark embedding and
// detection must both be able to name "the i-th node of the subtree"
// without exchanging any identifiers, so nodes are ranked purely from
// graph structure:
//
//	C1  higher level L_i first, where L_i is the length of the longest
//	    data path from the subtree root n_o back to n_i;
//	C2  ties broken by K_i(x), the cardinality of n_i's transitive fan-in
//	    tree within distance D_x, for increasing D_x;
//	C3  remaining ties broken by φ(n_i, x), the sum of the functionality
//	    identifiers over the same fan-in tree, for increasing D_x.
//
// The paper tries C2 and C3 "for increasing values of D_x until all nodes
// in the subtree are uniquely identified". Structurally isomorphic nodes
// (e.g. the two halves of a perfectly symmetric adder tree) can never be
// separated by structural criteria; Order reports whether the ordering is
// fully canonical, and falls back to operation kind and then node ID only
// to keep the output total.
package order

import (
	"fmt"

	"localwm/internal/cdfg"
)

// Result is the outcome of ordering a node set. A Result domain
// selection returns may be shared across calls and goroutines (see
// domain.Domain.Order): treat it as read-only.
type Result struct {
	// Ordered lists the nodes from greatest to least under the paper's ">"
	// relation. Identifier i names Ordered[i].
	Ordered []cdfg.NodeID
	// Canonical reports whether C1–C3 alone separated every pair. When
	// false, at least one tie was broken non-structurally, and a detector
	// on a renumbered copy of the design may disagree on those positions.
	Canonical bool
	// MaxDepth is the largest D_x that was consulted.
	MaxDepth int
}

// Rank returns v's identifier, its index in Ordered, and whether v is
// ordered at all. It scans Ordered, which suits the handful of lookups an
// embedder makes per ordering and keeps a Result free of any index.
func (r *Result) Rank(v cdfg.NodeID) (int, bool) {
	for i, u := range r.Ordered {
		if u == v {
			return i, true
		}
	}
	return -1, false
}

// Order ranks the given subtree nodes of g with respect to root. The
// subtree must contain root and list each node once. maxDepth bounds the
// D_x search; a value of 0 means "up to the number of subtree nodes",
// which always suffices because fan-in trees stop growing beyond that
// distance.
func Order(g *cdfg.Graph, root cdfg.NodeID, subtree []cdfg.NodeID, maxDepth int) (*Result, error) {
	if len(subtree) == 0 {
		return nil, fmt.Errorf("order: empty subtree")
	}
	found := false
	for _, v := range subtree {
		if v == root {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("order: subtree does not contain root %d", root)
	}
	if maxDepth <= 0 {
		// Deep refinement rarely separates what 12 hops cannot; the cap
		// bounds ordering cost on large subtrees. Residual ties are
		// reported via Result.Canonical.
		maxDepth = 12
		if len(subtree) < maxDepth {
			maxDepth = len(subtree)
		}
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	levels, err := g.LevelsInto(&sc.cone, root)
	if err != nil {
		return nil, err
	}
	for _, v := range subtree {
		if levels[v] < 0 {
			return nil, fmt.Errorf("order: node %s is not in the fan-in cone of root %s",
				g.Node(v).Name, g.Node(root).Name)
		}
	}

	return sc.rank(g, subtree, levels, maxDepth)
}

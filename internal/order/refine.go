package order

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"localwm/internal/cdfg"
)

// rank orders nodes under the paper's ">" relation: level[v] first
// (criterion C1), then (K_i(x), φ(n_i,x)) for x = 1, 2, … up to maxDepth
// (C2, C3), then the non-structural fallbacks (operation kind, then node
// ID). It is the refinement Order and Global share.
//
// Refinement is partition refinement over tie classes. Nodes are kept
// sorted by their key so far, and a run of equal keys is a class. Each
// round advances only the members of classes with more than one node by
// one distance level and splits those classes on the new (K, φ) pair. A
// node that is alone in its class already differs from every other node
// within the compared prefix, so its deeper keys could never change the
// outcome and are not computed. Round x runs while any class has two or
// more members, exactly as a refinement that appends (K, φ) to every
// node's key until all keys are distinct would; MaxDepth reports the
// number of rounds run. A node listed twice is an error.
func (sc *scratch) rank(g *cdfg.Graph, nodes []cdfg.NodeID, level []int, maxDepth int) (*Result, error) {
	sc.reset(g.Len(), len(nodes))
	for _, v := range nodes {
		if !sc.seen.Add(v) {
			return nil, fmt.Errorf("order: node %s listed twice", g.Node(v).Name)
		}
	}

	// perm holds positions into nodes, sorted by key so far; walks are
	// indexed by position.
	perm := sc.perm
	slices.SortFunc(perm, func(a, b int32) int {
		return cmp.Compare(level[nodes[b]], level[nodes[a]])
	})
	runs := appendRuns(sc.runs[:0], perm, 0, int32(len(perm)), func(a, b int32) bool {
		return level[nodes[a]] == level[nodes[b]]
	})
	next := sc.next[:0]

	canonical := false
	depthUsed := 0
	for dx := 1; dx <= maxDepth; dx++ {
		if len(runs) == 0 {
			canonical = true
			break
		}
		depthUsed = dx
		next = next[:0]
		for _, r := range runs {
			class := perm[r.lo:r.hi]
			for _, p := range class {
				sc.advance(g, nodes[p], &sc.walks[p])
			}
			walks := sc.walks
			slices.SortFunc(class, func(a, b int32) int {
				if c := cmp.Compare(walks[b].k, walks[a].k); c != 0 {
					return c
				}
				return cmp.Compare(walks[b].phi, walks[a].phi)
			})
			next = appendRuns(next, perm, r.lo, r.hi, func(a, b int32) bool {
				return walks[a].k == walks[b].k && walks[a].phi == walks[b].phi
			})
		}
		runs, next = next, runs
	}
	if !canonical {
		canonical = len(runs) == 0
	}
	// Non-structural fallbacks for the ties that remain, reported via
	// Canonical=false.
	for _, r := range runs {
		slices.SortFunc(perm[r.lo:r.hi], func(a, b int32) int {
			va, vb := nodes[a], nodes[b]
			if c := cmp.Compare(g.Node(vb).Op, g.Node(va).Op); c != 0 {
				return c
			}
			return cmp.Compare(va, vb)
		})
	}
	sc.runs, sc.next = runs, next

	res := &Result{
		Ordered:   make([]cdfg.NodeID, len(perm)),
		Canonical: canonical,
		MaxDepth:  depthUsed,
	}
	for i, p := range perm {
		res.Ordered[i] = nodes[p]
	}
	return res, nil
}

// span is a half-open range [lo, hi) of a slice.
type span struct{ lo, hi int32 }

// appendRuns appends to dst every run of two or more adjacent equal
// positions in perm[lo:hi].
func appendRuns(dst []span, perm []int32, lo, hi int32, eq func(a, b int32) bool) []span {
	for i := lo; i < hi; {
		j := i + 1
		for j < hi && eq(perm[i], perm[j]) {
			j++
		}
		if j-i > 1 {
			dst = append(dst, span{i, j})
		}
		i = j
	}
	return dst
}

// walk is one node's breadth-first fan-in walk. Each distance level it
// reaches is a span of scratch.arena, recorded in scratch.levels and
// chained newest first, so the walk's visited set is the node itself plus
// every level on the chain, and its frontier is the newest level.
type walk struct {
	last   int32 // index of the newest level in scratch.levels; -1 before the first advance
	done   bool  // the last advance found no new node: the fan-in tree is complete
	k, phi int   // K_i(x) and φ(n_i, x) at the distance reached
}

// walkLevel is one distance level of a walk: arena[lo:hi], and the index
// of the walk's previous level in scratch.levels (-1 for the first).
type walkLevel struct{ lo, hi, prev int32 }

// scratch is the reusable state of one Order or Global call: the level
// buffers of Order, then the rank refinement. Walks are advanced one at a
// time, so they share one visited set, seen: before a walk takes its next
// level, seen is reset and refilled from the walk's stored levels. Memory
// stays proportional to the nodes the walks have actually reached.
type scratch struct {
	cone   cdfg.LevelScratch
	seen   cdfg.NodeMarks
	arena  []cdfg.NodeID
	levels []walkLevel
	walks  []walk
	perm   []int32
	runs   []span
	next   []span
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset prepares sc for ranking s nodes of a graph with n nodes.
func (sc *scratch) reset(n, s int) {
	sc.seen.Reset(n)
	sc.arena = sc.arena[:0]
	sc.levels = sc.levels[:0]
	sc.walks = slices.Grow(sc.walks[:0], s)[:s]
	sc.perm = slices.Grow(sc.perm[:0], s)[:s]
	for i := range sc.walks {
		sc.walks[i] = walk{last: -1}
		sc.perm[i] = int32(i)
	}
}

// advance extends v's walk w by one distance level, adding every node
// first reached at that distance to K and φ.
func (sc *scratch) advance(g *cdfg.Graph, v cdfg.NodeID, w *walk) {
	if w.done {
		return
	}
	sc.seen.Reset(g.Len())
	sc.seen.Add(v)
	for l := w.last; l >= 0; l = sc.levels[l].prev {
		for _, u := range sc.arena[sc.levels[l].lo:sc.levels[l].hi] {
			sc.seen.Add(u)
		}
	}
	lo := int32(len(sc.arena))
	if w.last < 0 {
		w.phi = int(g.Node(v).Op) // T_i(x) includes n_i itself
		sc.expand(g, v, w)
	} else {
		// Index the frontier: expand appends to, and may move, arena.
		f := sc.levels[w.last]
		for i := f.lo; i < f.hi; i++ {
			sc.expand(g, sc.arena[i], w)
		}
	}
	hi := int32(len(sc.arena))
	if hi == lo {
		w.done = true
		return
	}
	sc.levels = append(sc.levels, walkLevel{lo, hi, w.last})
	w.last = int32(len(sc.levels) - 1)
}

// expand visits the data inputs of u for walk w.
func (sc *scratch) expand(g *cdfg.Graph, u cdfg.NodeID, w *walk) {
	for _, x := range g.DataIn(u) {
		if sc.seen.Add(x) {
			sc.arena = append(sc.arena, x)
			w.k++
			w.phi += int(g.Node(x).Op)
		}
	}
}

package order

import (
	"fmt"
	"sort"

	"localwm/internal/cdfg"
)

// This file keeps the original map-based ordering as the reference the
// differential tests compare Order, Global and cdfg.Levels against: every
// refinement round recomputes K_i(x) and φ(n_i,x) for every node from a
// fresh fan-in BFS, levels come from a whole-graph topological order, and
// ties are detected by printing each key vector.

// reference computes the map-based orderings of one graph. With memo set
// it caches the whole-graph topological order and every (K, φ) pair it
// computes; both are pure functions of the graph, so a test comparing
// many roots of one unchanging graph can share a memoized reference.
type reference struct {
	g     *cdfg.Graph
	memo  bool
	topo  []cdfg.NodeID
	stats map[[2]int][2]int
}

func newReference(g *cdfg.Graph, memo bool) *reference {
	return &reference{g: g, memo: memo, stats: map[[2]int][2]int{}}
}

// levels is Levels over a whole-graph topological order: the longest path
// over reversed data edges from root, -1 outside the cone.
func (r *reference) levels(root cdfg.NodeID) ([]int, error) {
	g := r.g
	if root < 0 || int(root) >= g.Len() {
		return nil, fmt.Errorf("cdfg: node id %d out of range [0,%d)", root, g.Len())
	}
	level := make([]int, g.Len())
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	order := r.topo
	if order == nil {
		var err error
		if order, err = g.TopoOrder(); err != nil {
			return nil, err
		}
		if r.memo {
			r.topo = order
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == root {
			continue
		}
		best := -1
		for _, w := range g.DataOut(v) {
			if level[w] >= 0 && level[w]+1 > best {
				best = level[w] + 1
			}
		}
		level[v] = best
	}
	return level, nil
}

// faninStats returns (K_i(x), φ(n_i,x)) for node v at distance x.
func (r *reference) faninStats(v cdfg.NodeID, x int) (int, int, error) {
	key := [2]int{int(v), x}
	if kp, ok := r.stats[key]; ok {
		return kp[0], kp[1], nil
	}
	k, err := refFaninCount(r.g, v, x)
	if err != nil {
		return 0, 0, err
	}
	phi, err := refFaninPhi(r.g, v, x)
	if err != nil {
		return 0, 0, err
	}
	if r.memo {
		r.stats[key] = [2]int{k, phi}
	}
	return k, phi, nil
}

// refFaninCount is K_i(x): the size of v's fan-in tree within distance x,
// v excluded.
func refFaninCount(g *cdfg.Graph, v cdfg.NodeID, x int) (int, error) {
	tree, err := g.FaninTree(v, x)
	if err != nil {
		return 0, err
	}
	return len(tree) - 1, nil
}

// refFaninPhi is φ(v, x): the sum of operation identifiers over v's fan-in
// tree within distance x, v included.
func refFaninPhi(g *cdfg.Graph, v cdfg.NodeID, x int) (int, error) {
	tree, err := g.FaninTree(v, x)
	if err != nil {
		return 0, err
	}
	sum := 0
	for u := range tree {
		sum += int(g.Node(u).Op)
	}
	return sum, nil
}

func (r *reference) order(root cdfg.NodeID, subtree []cdfg.NodeID, maxDepth int) (*Result, error) {
	g := r.g
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
		maxDepth = 12
		if len(subtree) < maxDepth {
			maxDepth = len(subtree)
		}
	}
	levels, err := r.levels(root)
	if err != nil {
		return nil, err
	}
	for _, v := range subtree {
		if levels[v] < 0 {
			return nil, fmt.Errorf("order: node %s is not in the fan-in cone of root %s",
				g.Node(v).Name, g.Node(root).Name)
		}
	}
	keys := make(map[cdfg.NodeID][]int, len(subtree))
	for _, v := range subtree {
		keys[v] = []int{levels[v]}
	}
	return r.refine(cdfg.SortedIDs(subtree), keys, maxDepth)
}

func (r *reference) global(maxDepth int) (*Result, error) {
	g := r.g
	nodes := g.Computational()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("order: graph has no computational nodes")
	}
	if maxDepth <= 0 {
		maxDepth = 8
		if len(nodes) < maxDepth {
			maxDepth = len(nodes)
		}
	}
	from, err := g.LongestFrom(cdfg.PathOpts{})
	if err != nil {
		return nil, err
	}
	keys := make(map[cdfg.NodeID][]int, len(nodes))
	for _, v := range nodes {
		keys[v] = []int{from[v]}
	}
	return r.refine(nodes, keys, maxDepth)
}

// refRefine appends (K, φ) for every node at every depth until the keys
// are unique or maxDepth is reached, then sorts with the non-structural
// fallbacks.
func (r *reference) refine(nodes []cdfg.NodeID, keys map[cdfg.NodeID][]int, maxDepth int) (*Result, error) {
	g := r.g
	canonical := false
	depthUsed := 0
	for dx := 1; dx <= maxDepth; dx++ {
		if refAllUnique(nodes, keys) {
			canonical = true
			break
		}
		depthUsed = dx
		for _, v := range nodes {
			k, phi, err := r.faninStats(v, dx)
			if err != nil {
				return nil, err
			}
			keys[v] = append(keys[v], k, phi)
		}
	}
	if !canonical {
		canonical = refAllUnique(nodes, keys)
	}
	ordered := append([]cdfg.NodeID(nil), nodes...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if c := refCompareKeys(keys[a], keys[b]); c != 0 {
			return c > 0
		}
		if g.Node(a).Op != g.Node(b).Op {
			return g.Node(a).Op > g.Node(b).Op
		}
		return a < b
	})
	return &Result{Ordered: ordered, Canonical: canonical, MaxDepth: depthUsed}, nil
}

func refCompareKeys(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] > b[i]:
			return 1
		case a[i] < b[i]:
			return -1
		}
	}
	return 0
}

func refAllUnique(nodes []cdfg.NodeID, keys map[cdfg.NodeID][]int) bool {
	seen := make(map[string]bool, len(nodes))
	for _, v := range nodes {
		s := fmt.Sprint(keys[v])
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

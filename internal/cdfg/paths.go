package cdfg

import "fmt"

// Path-length convention: a path's length is the number of computational
// nodes on it (unit-latency operations, i.e. the number of control steps a
// chained execution needs). Inputs, outputs, constants, and delays
// contribute zero. This matches the paper's usage, where the critical path
// and laxities are quoted "in operations" and compared against control-step
// budgets.

// WeightFunc gives the path-length contribution of an operation. The
// default (nil) charges 1 per computational node — the control-step
// metric of behavioral synthesis. A machine model can supply its latency
// table instead (e.g. vliw.Machine.OpWeight) so that laxity and critical
// path reflect cycles rather than steps; the watermark embedders accept
// such a function to keep constraints off machine-critical paths.
type WeightFunc func(Op) int

// nodeWeight is the contribution of a node to path length.
func (g *Graph) nodeWeight(opts PathOpts, v NodeID) int {
	op := g.nodes[v].Op
	if !op.IsComputational() {
		return 0
	}
	if opts.Weight != nil {
		return opts.Weight(op)
	}
	return 1
}

// PathOpts selects which edge kinds participate in longest-path queries
// and how nodes are weighted.
type PathOpts struct {
	// IncludeTemporal makes temporal (watermark) edges part of the
	// precedence relation. Scheduling-related queries set this; the
	// specification's own critical path does not.
	IncludeTemporal bool
	// Weight overrides the unit node weight (see WeightFunc). Only
	// computational nodes are charged either way.
	Weight WeightFunc
}

// LongestTo returns, for every node v, the length of the longest path
// ending at v, including v's own weight. The graph must be acyclic over
// all edge kinds.
func (g *Graph) LongestTo(opts PathOpts) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.longestTo(opts, order), nil
}

// LongestFrom returns, for every node v, the length of the longest path
// starting at v, including v's own weight.
func (g *Graph) LongestFrom(opts PathOpts) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.longestFrom(opts, order), nil
}

// longest returns LongestTo and LongestFrom, computed on one topological
// order.
func (g *Graph) longest(opts PathOpts) (to, from []int, err error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, nil, err
	}
	return g.longestTo(opts, order), g.longestFrom(opts, order), nil
}

// longestTo and longestFrom are the two passes of LongestTo/LongestFrom
// over a topological order. A node listed twice in an edge list (a value
// feeding two input slots, or a control edge beside a data edge) only
// repeats a candidate of the maximum, so the raw lists serve.
func (g *Graph) longestTo(opts PathOpts, order []NodeID) []int {
	to := make([]int, len(g.nodes))
	for _, v := range order {
		var best int
		if opts.IncludeTemporal {
			best = maxAt(to, g.precIn[v])
		} else {
			best = max(maxAt(to, g.dataIn[v]), maxAt(to, g.ctrlIn[v]))
		}
		to[v] = best + g.nodeWeight(opts, v)
	}
	return to
}

func (g *Graph) longestFrom(opts PathOpts, order []NodeID) []int {
	from := make([]int, len(g.nodes))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var best int
		if opts.IncludeTemporal {
			best = maxAt(from, g.precOut[v])
		} else {
			best = max(maxAt(from, g.dataOut[v]), maxAt(from, g.ctrlOut[v]))
		}
		from[v] = best + g.nodeWeight(opts, v)
	}
	return from
}

// maxAt returns the largest vals[u] over the nodes u of l, or 0.
func maxAt(vals []int, l []NodeID) int {
	best := 0
	for _, u := range l {
		if vals[u] > best {
			best = vals[u]
		}
	}
	return best
}

// PathScratch holds the buffers of WeightedLongest, so a caller that
// refreshes weighted paths repeatedly (the watermark encoder, once per
// drawn edge) allocates them once. The zero value is ready to use; one
// PathScratch serves one goroutine at a time.
type PathScratch struct {
	indeg    []int32
	order    []NodeID
	to, from []int
	sources  NodeMarks // nodes a pending edge leaves
}

// WeightedLongest returns, for every node, the longest weighted path
// ending at it (to) and starting at it (from), both including the node's
// own weight, over all edge kinds plus the pending edges. Traversing a
// temporal or pending edge costs tempW on top: the scheduling watermark
// realizes each such constraint as a unit operation of weight tempW
// between its endpoints. Pending edges are precedence constraints not in
// the graph, such as the ones a watermark encoder has drawn but not yet
// committed; they may repeat graph edges. The union must be acyclic.
//
// The result slices live in s and are overwritten by the next call on s;
// pass a fresh PathScratch to keep them.
func (g *Graph) WeightedLongest(s *PathScratch, weight WeightFunc, tempW int, pending []Edge) (to, from []int, err error) {
	n := len(g.nodes)
	s.sources.Reset(n)
	for _, e := range pending {
		s.sources.Add(e.From)
	}
	// Kahn's algorithm with order doubling as the queue: any topological
	// order gives the same longest paths.
	s.indeg = resize(s.indeg, n)
	order := s.order[:0]
	for v := 0; v < n; v++ {
		s.indeg[v] = int32(len(g.precIn[v]))
	}
	for _, e := range pending {
		s.indeg[e.To]++
	}
	for v := 0; v < n; v++ {
		if s.indeg[v] == 0 {
			order = append(order, NodeID(v))
		}
	}
	release := func(w NodeID) {
		if s.indeg[w]--; s.indeg[w] == 0 {
			order = append(order, w)
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		for _, w := range g.precOut[v] {
			release(w)
		}
		if s.sources.Has(v) {
			for _, e := range pending {
				if e.From == v {
					release(e.To)
				}
			}
		}
	}
	s.order = order
	if len(order) != n {
		return nil, nil, cycleError(len(order), n)
	}
	opts := PathOpts{Weight: weight}
	// edgeW charges tempW on an edge that is temporal or pending, even
	// where a data or control edge joins the same pair.
	edgeW := func(v, w NodeID) int {
		if contains(g.tempIn[w], v) {
			return tempW
		}
		if s.sources.Has(v) {
			for _, e := range pending {
				if e.From == v && e.To == w {
					return tempW
				}
			}
		}
		return 0
	}
	s.to = resize(s.to, n)
	to = s.to
	clear(to)
	for _, v := range order {
		// to[v] holds the best path into v; add v's own weight, then
		// offer the result to v's successors.
		to[v] += g.nodeWeight(opts, v)
		for _, w := range g.precOut[v] {
			to[w] = max(to[w], to[v]+edgeW(v, w))
		}
		if s.sources.Has(v) {
			for _, e := range pending {
				if e.From == v {
					to[e.To] = max(to[e.To], to[v]+tempW)
				}
			}
		}
	}
	s.from = resize(s.from, n)
	from = s.from
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		for _, w := range g.precOut[v] {
			best = max(best, from[w]+edgeW(v, w))
		}
		if s.sources.Has(v) {
			for _, e := range pending {
				if e.From == v {
					best = max(best, from[e.To]+tempW)
				}
			}
		}
		from[v] = best + g.nodeWeight(opts, v)
	}
	return to, from, nil
}

// resize returns s with length n, reusing its storage when large enough.
// The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CriticalPath returns the length of the longest path in the graph over
// data+control edges (the specification's critical path C, in operations).
func (g *Graph) CriticalPath() (int, error) { return g.CriticalPathW(nil) }

// CriticalPathW is CriticalPath under a custom operation weighting (e.g.
// machine latencies).
func (g *Graph) CriticalPathW(weight WeightFunc) (int, error) {
	to, err := g.LongestTo(PathOpts{Weight: weight})
	if err != nil {
		return 0, err
	}
	best := 0
	for _, l := range to {
		if l > best {
			best = l
		}
	}
	return best, nil
}

// Laxities returns, for every node v, the length of the longest path in
// the graph that contains v (the paper's laxity: "a node n_i has a laxity
// of x if the longest path that contains n_i traverses the CDFG and has a
// length of x"). Computed as longest-to(v) + longest-from(v) - weight(v),
// over data+control edges.
//
// Note the paper's convention: a node with HIGH laxity lies on a LONG path
// (is timing-critical); the watermark protocols therefore keep nodes whose
// laxity is at most C·(1-ε) away from critical, where C is the critical
// path length.
func (g *Graph) Laxities() ([]int, error) { return g.LaxitiesW(nil) }

// LaxitiesW is Laxities under a custom operation weighting (e.g. machine
// latencies), so a watermark embedder can judge criticality in cycles.
func (g *Graph) LaxitiesW(weight WeightFunc) ([]int, error) {
	opts := PathOpts{Weight: weight}
	to, from, err := g.longest(opts)
	if err != nil {
		return nil, err
	}
	lax := make([]int, len(g.nodes))
	for v := range lax {
		lax[v] = to[v] + from[v] - g.nodeWeight(opts, NodeID(v))
	}
	return lax, nil
}

// Levels returns the level L_i of every node with respect to root: the
// length (in edges, over reversed data edges) of the longest path in the
// fan-in cone from root to the node. Nodes outside root's transitive
// fan-in get level -1. This is the quantity used by ordering criterion C1.
//
// Only the cone is walked: Kahn's algorithm over its reversed data edges,
// so a node's level is final once every data consumer of it inside the
// cone has been processed. A data cycle inside the cone is an error;
// acyclicity of the rest of the graph is Validate's job.
func (g *Graph) Levels(root NodeID) ([]int, error) {
	var sc LevelScratch
	return g.LevelsInto(&sc, root)
}

// LevelScratch holds the buffers of LevelsInto between calls. Outside
// the cone of its last call, level is -1 and pending 0 throughout, so a
// call resets only that cone instead of clearing n entries. The zero
// value is ready for use; one LevelScratch may serve graphs of any size,
// one call at a time.
type LevelScratch struct {
	level   []int
	pending []int32
	cone    []NodeID
}

// LevelsInto is Levels computed in sc's buffers: it allocates nothing
// once sc has grown to the graph's size and the cone's. The result
// aliases sc and is valid until sc's next use.
func (g *Graph) LevelsInto(sc *LevelScratch, root NodeID) ([]int, error) {
	if err := g.checkID(root); err != nil {
		return nil, err
	}
	for _, v := range sc.cone {
		sc.level[v] = -1
		sc.pending[v] = 0
	}
	for len(sc.level) < len(g.nodes) {
		sc.level = append(sc.level, -1)
		sc.pending = append(sc.pending, 0)
	}
	level, pending := sc.level[:len(g.nodes)], sc.pending[:len(g.nodes)]
	// Collect the cone breadth-first, counting for every cone node its
	// data consumers inside the cone (one per edge, as a node may feed
	// two input slots of the same consumer).
	cone := append(sc.cone[:0], root)
	level[root] = 0
	for i := 0; i < len(cone); i++ {
		for _, u := range g.dataIn[cone[i]] {
			if level[u] < 0 {
				level[u] = 0
				cone = append(cone, u)
			}
			pending[u]++
		}
	}
	// cone doubles as the Kahn queue: a node is re-appended once its last
	// in-cone consumer has been processed, so ready nodes are the suffix
	// beyond the collected cone. The root has no consumer in its own cone
	// unless a cycle runs through it.
	n := len(cone)
	ready := cone
	if pending[root] == 0 {
		ready = append(ready, root)
	}
	for i := n; i < len(ready); i++ {
		v := ready[i]
		for _, u := range g.dataIn[v] {
			if level[v]+1 > level[u] {
				level[u] = level[v] + 1
			}
			if pending[u]--; pending[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	sc.cone = ready[:n]
	if len(ready)-n != n {
		return nil, fmt.Errorf("cdfg: data cycle in the fan-in cone of %s (%d of %d nodes leveled)",
			g.nodes[root].Name, len(ready)-n, n)
	}
	return level, nil
}

// FaninTree returns the set of nodes whose shortest backward data-edge
// distance from root is at most maxDist (root itself included, at distance
// zero), as a map from node to distance. This is the subtree T_o of the
// domain-selection step.
func (g *Graph) FaninTree(root NodeID, maxDist int) (map[NodeID]int, error) {
	if err := g.checkID(root); err != nil {
		return nil, err
	}
	if maxDist < 0 {
		return nil, fmt.Errorf("cdfg: negative fan-in distance %d", maxDist)
	}
	dist := map[NodeID]int{root: 0}
	frontier := []NodeID{root}
	for d := 1; d <= maxDist && len(frontier) > 0; d++ {
		var next []NodeID
		for _, v := range frontier {
			for _, u := range g.dataIn[v] {
				if _, ok := dist[u]; !ok {
					dist[u] = d
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	return dist, nil
}

// SubgraphResult is the outcome of InducedSubgraph: the new graph plus the
// two-way node mapping.
type SubgraphResult struct {
	Graph  *Graph
	ToSub  map[NodeID]NodeID // original ID -> subgraph ID
	ToOrig []NodeID          // subgraph ID -> original ID
}

// InducedSubgraph builds the subgraph induced by keep (all edges of every
// kind whose endpoints are both kept). Nodes are renumbered densely in
// ascending original-ID order, preserving deterministic identity.
func (g *Graph) InducedSubgraph(keep []NodeID) (*SubgraphResult, error) {
	ids := SortedIDs(keep)
	for i, v := range ids {
		if err := g.checkID(v); err != nil {
			return nil, err
		}
		if i > 0 && ids[i-1] == v {
			return nil, fmt.Errorf("cdfg: duplicate node %d in subgraph set", v)
		}
	}
	res := &SubgraphResult{
		Graph:  New(len(ids)),
		ToSub:  make(map[NodeID]NodeID, len(ids)),
		ToOrig: make([]NodeID, 0, len(ids)),
	}
	for _, v := range ids {
		n := g.nodes[v]
		sid := res.Graph.AddNode(n.Name, n.Op)
		res.ToSub[v] = sid
		res.ToOrig = append(res.ToOrig, v)
	}
	addEdges := func(in [][]NodeID, kind EdgeKind) error {
		for _, v := range ids {
			for _, u := range in[v] {
				su, ok := res.ToSub[u]
				if !ok {
					continue
				}
				if err := res.Graph.AddEdge(su, res.ToSub[v], kind); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addEdges(g.dataIn, DataEdge); err != nil {
		return nil, err
	}
	if err := addEdges(g.ctrlIn, ControlEdge); err != nil {
		return nil, err
	}
	if err := addEdges(g.tempIn, TemporalEdge); err != nil {
		return nil, err
	}
	return res, nil
}

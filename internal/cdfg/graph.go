package cdfg

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// NodeID indexes a node within one Graph. IDs are dense: the first node
// added receives 0, the next 1, and so on. A NodeID is meaningless outside
// the graph that issued it.
type NodeID int

// None is the invalid NodeID.
const None NodeID = -1

// Node is a primitive operation in a CDFG.
type Node struct {
	ID   NodeID
	Name string // human-readable label, e.g. "A5" or "C3"; unique per graph
	Op   Op
}

// EdgeKind distinguishes the three edge classes of the model.
type EdgeKind int

const (
	// DataEdge carries a value from producer to consumer.
	DataEdge EdgeKind = iota
	// ControlEdge sequences two operations without value flow (part of the
	// original specification).
	ControlEdge
	// TemporalEdge is an additional precedence constraint: its source must
	// be scheduled strictly before its destination. Temporal edges are the
	// carrier of the scheduling watermark and are "standard nomenclatures
	// for behavioral descriptions (e.g., HYPER)".
	TemporalEdge
)

func (k EdgeKind) String() string {
	switch k {
	case DataEdge:
		return "data"
	case ControlEdge:
		return "ctrl"
	case TemporalEdge:
		return "temp"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Edge is a directed edge of a CDFG.
type Edge struct {
	From, To NodeID
	Kind     EdgeKind
}

// Graph is a mutable CDFG. The zero value is an empty graph ready to use.
//
// Structural edges (data + control) define the specification's precedence
// relation and value flow; temporal edges add watermark or user precedence
// on top. Methods that reason about "precedence" consider all three kinds
// unless documented otherwise; methods that reason about value flow
// (fan-in trees, template matching) consider data edges only.
type Graph struct {
	nodes []Node

	// dataIn[v] lists, in input-slot order, the data-edge sources of v.
	// Slot order is meaningful: it is how the domain-identification step
	// disambiguates "each node input".
	dataIn  [][]NodeID
	dataOut [][]NodeID

	ctrlIn  [][]NodeID
	ctrlOut [][]NodeID

	temporal []Edge // explicit list, in insertion order
	tempIn   [][]NodeID
	tempOut  [][]NodeID

	// Generation counters version the graph for the PathOracle cache.
	// structGen advances on any change that can alter structural (data +
	// control) path analyses: node additions, data/control edges, and
	// operation rewrites. tempGen advances on temporal-edge changes only.
	// Queries that exclude temporal edges are keyed by structGen alone, so
	// watermark embedding (which only adds temporal edges) never evicts
	// them.
	structGen uint64
	tempGen   uint64

	// oracle is the lazily created longest-path cache; see Oracle. It is
	// deliberately not part of Clone: a cloned graph starts with a cold
	// cache of its own.
	oracle atomic.Pointer[PathOracle]

	// pathObserver, when set, is called after every longest-path
	// (re)computation the oracle performs on a cache miss; see
	// OnPathRecompute. Not copied by Clone.
	pathObserver func(kind string, start time.Time, elapsed time.Duration)
}

// OnPathRecompute registers fn to be called after every longest-path
// recomputation the graph's PathOracle performs (cache hits are not
// reported — they do no path work). kind names the analysis family
// ("longest" for the structural to/from/laxity bundle,
// "temporal_weighted" for the watermark no-stretch model). fn may be
// invoked from any goroutine querying the oracle and must be safe for
// concurrent use; register it before concurrent queries begin, like any
// other graph mutation. A nil fn removes the observer. The observer is
// per-graph state and is not copied by Clone.
func (g *Graph) OnPathRecompute(fn func(kind string, start time.Time, elapsed time.Duration)) {
	g.pathObserver = fn
}

// New returns an empty graph with capacity hints for n nodes.
func New(n int) *Graph {
	g := &Graph{}
	g.grow(n)
	return g
}

func (g *Graph) grow(n int) {
	if cap(g.nodes) < n {
		nodes := make([]Node, len(g.nodes), n)
		copy(nodes, g.nodes)
		g.nodes = nodes
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// AddNode appends a node with the given name and operation and returns its
// ID. Names should be unique; Validate enforces this.
func (g *Graph) AddNode(name string, op Op) NodeID {
	g.structGen++
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Op: op})
	g.dataIn = append(g.dataIn, nil)
	g.dataOut = append(g.dataOut, nil)
	g.ctrlIn = append(g.ctrlIn, nil)
	g.ctrlOut = append(g.ctrlOut, nil)
	g.tempIn = append(g.tempIn, nil)
	g.tempOut = append(g.tempOut, nil)
	return id
}

// Node returns the node record for id. It panics on an out-of-range ID;
// IDs are only ever produced by the graph itself, so a bad ID is a
// programming error rather than an input error.
func (g *Graph) Node(id NodeID) Node {
	return g.nodes[id]
}

// SetOp rewrites the operation kind of an existing node. Used by design
// integration (e.g. turning a core's primary input into a forwarding op
// when wiring it into a host system); callers are responsible for
// re-validating arity afterwards.
func (g *Graph) SetOp(v NodeID, op Op) {
	g.structGen++
	g.nodes[v].Op = op
}

// NodeByName returns the node with the given name.
func (g *Graph) NodeByName(name string) (Node, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// MustNode returns the ID of the node with the given name, panicking if it
// does not exist. It is a convenience for constructing the hand-built
// example designs.
func (g *Graph) MustNode(name string) NodeID {
	n, ok := g.NodeByName(name)
	if !ok {
		panic(fmt.Sprintf("cdfg: no node named %q", name))
	}
	return n.ID
}

// Nodes returns all nodes in ID order. The returned slice is a copy.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

func (g *Graph) checkID(id NodeID) error {
	if id < 0 || int(id) >= len(g.nodes) {
		return fmt.Errorf("cdfg: node id %d out of range [0,%d)", id, len(g.nodes))
	}
	return nil
}

// AddEdge inserts a directed edge. Duplicate data/control edges between the
// same pair are allowed only for data edges (an operation may consume the
// same value on two input slots); duplicate temporal edges are rejected, as
// are self-loops.
func (g *Graph) AddEdge(from, to NodeID, kind EdgeKind) error {
	if err := g.checkID(from); err != nil {
		return err
	}
	if err := g.checkID(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("cdfg: self-loop on node %d (%s)", from, g.nodes[from].Name)
	}
	switch kind {
	case DataEdge:
		g.structGen++
		g.dataIn[to] = append(g.dataIn[to], from)
		g.dataOut[from] = append(g.dataOut[from], to)
	case ControlEdge:
		if contains(g.ctrlOut[from], to) {
			return fmt.Errorf("cdfg: duplicate control edge %s->%s", g.nodes[from].Name, g.nodes[to].Name)
		}
		g.structGen++
		g.ctrlIn[to] = append(g.ctrlIn[to], from)
		g.ctrlOut[from] = append(g.ctrlOut[from], to)
	case TemporalEdge:
		if contains(g.tempOut[from], to) {
			return fmt.Errorf("cdfg: duplicate temporal edge %s->%s", g.nodes[from].Name, g.nodes[to].Name)
		}
		g.tempGen++
		g.temporal = append(g.temporal, Edge{From: from, To: to, Kind: TemporalEdge})
		g.tempIn[to] = append(g.tempIn[to], from)
		g.tempOut[from] = append(g.tempOut[from], to)
	default:
		return fmt.Errorf("cdfg: unknown edge kind %v", kind)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; used by builders of
// hand-constructed designs where an edge error is a bug.
func (g *Graph) MustAddEdge(from, to NodeID, kind EdgeKind) {
	if err := g.AddEdge(from, to, kind); err != nil {
		panic(err)
	}
}

// DataIn returns the data-edge sources of v in input-slot order.
// The returned slice must not be modified.
func (g *Graph) DataIn(v NodeID) []NodeID { return g.dataIn[v] }

// DataOut returns the data-edge sinks of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) DataOut(v NodeID) []NodeID { return g.dataOut[v] }

// ControlIn returns the control-edge sources of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) ControlIn(v NodeID) []NodeID { return g.ctrlIn[v] }

// ControlOut returns the control-edge sinks of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) ControlOut(v NodeID) []NodeID { return g.ctrlOut[v] }

// TemporalIn returns the temporal-edge sources of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) TemporalIn(v NodeID) []NodeID { return g.tempIn[v] }

// TemporalOut returns the temporal-edge sinks of v in insertion order.
// The returned slice must not be modified.
func (g *Graph) TemporalOut(v NodeID) []NodeID { return g.tempOut[v] }

// TemporalEdges returns the temporal edges in insertion order as a copy.
func (g *Graph) TemporalEdges() []Edge {
	out := make([]Edge, len(g.temporal))
	copy(out, g.temporal)
	return out
}

// ClearTemporalEdges removes every temporal edge; the paper's flow removes
// the added constraints from the optimized specification after synthesis.
func (g *Graph) ClearTemporalEdges() {
	g.tempGen++
	g.temporal = g.temporal[:0]
	for i := range g.tempIn {
		g.tempIn[i] = nil
		g.tempOut[i] = nil
	}
}

// PredsAll appends to dst the precedence predecessors of v across all edge
// kinds, deduplicated, and returns the result. Order: data slots first,
// then control, then temporal.
func (g *Graph) PredsAll(dst []NodeID, v NodeID) []NodeID {
	return appendUnique(dst, g.dataIn[v], g.ctrlIn[v], g.tempIn[v])
}

// SuccsAll appends to dst the precedence successors of v across all edge
// kinds, deduplicated, and returns the result.
func (g *Graph) SuccsAll(dst []NodeID, v NodeID) []NodeID {
	return appendUnique(dst, g.dataOut[v], g.ctrlOut[v], g.tempOut[v])
}

// appendUnique appends to dst, in order, every node of the lists not
// already appended. A node has a handful of neighbors, so a linear scan of
// what was appended beats a set.
func appendUnique(dst []NodeID, lists ...[]NodeID) []NodeID {
	start := len(dst)
	for _, l := range lists {
		for _, u := range l {
			if !contains(dst[start:], u) {
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// Clone returns a deep copy of the graph. The clone carries the source's
// generation counters but starts with a cold PathOracle of its own, so
// cached analyses never leak across graph identities.
func (g *Graph) Clone() *Graph {
	c := New(len(g.nodes))
	c.nodes = append(c.nodes[:0], g.nodes...)
	c.dataIn = cloneAdj(g.dataIn)
	c.dataOut = cloneAdj(g.dataOut)
	c.ctrlIn = cloneAdj(g.ctrlIn)
	c.ctrlOut = cloneAdj(g.ctrlOut)
	c.tempIn = cloneAdj(g.tempIn)
	c.tempOut = cloneAdj(g.tempOut)
	c.temporal = append([]Edge(nil), g.temporal...)
	c.structGen = g.structGen
	c.tempGen = g.tempGen
	return c
}

func cloneAdj(a [][]NodeID) [][]NodeID {
	out := make([][]NodeID, len(a))
	for i, l := range a {
		if l != nil {
			out[i] = append([]NodeID(nil), l...)
		}
	}
	return out
}

// EdgeCount returns the number of edges of each kind.
func (g *Graph) EdgeCount() (data, ctrl, temporal int) {
	for v := range g.nodes {
		data += len(g.dataIn[v])
		ctrl += len(g.ctrlIn[v])
	}
	return data, ctrl, len(g.temporal)
}

// Inputs returns the IDs of all primary-input nodes in ID order.
func (g *Graph) Inputs() []NodeID { return g.opNodes(OpInput) }

// Outputs returns the IDs of all primary-output nodes in ID order.
func (g *Graph) Outputs() []NodeID { return g.opNodes(OpOutput) }

func (g *Graph) opNodes(op Op) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Op == op {
			out = append(out, n.ID)
		}
	}
	return out
}

// Computational returns the IDs of all computational nodes in ID order.
func (g *Graph) Computational() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Op.IsComputational() {
			out = append(out, n.ID)
		}
	}
	return out
}

// TopoOrder returns a topological order over the full precedence relation
// (data + control + temporal edges). It returns an error if the graph has
// a cycle; adding a watermark temporal edge must never create one, and the
// scheduler refuses cyclic inputs.
//
// The order is deterministic: among ready nodes, the smallest NodeID is
// emitted first (Kahn's algorithm with an ordered frontier).
func (g *Graph) TopoOrder() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	var scratch []NodeID
	for v := 0; v < n; v++ {
		scratch = g.PredsAll(scratch[:0], NodeID(v))
		indeg[v] = len(scratch)
	}
	// Ordered frontier: a sorted slice used as a priority queue. Frontiers
	// in these graphs are small relative to n, and determinism matters more
	// than asymptotics here.
	var frontier []NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		// Smallest ID first.
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i] < frontier[best] {
				best = i
			}
		}
		v := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, v)
		scratch = g.SuccsAll(scratch[:0], v)
		for _, w := range scratch {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cdfg: graph has a precedence cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// HasPath reports whether there is a precedence path (over all edge kinds)
// from src to dst.
func (g *Graph) HasPath(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{src}
	seen[src] = true
	var scratch []NodeID
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		scratch = g.SuccsAll(scratch[:0], v)
		for _, w := range scratch {
			if w == dst {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// SortedIDs returns ids sorted ascending (a convenience for deterministic
// set handling).
func SortedIDs(ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func contains(l []NodeID, v NodeID) bool {
	for _, x := range l {
		if x == v {
			return true
		}
	}
	return false
}

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

	// precIn[v] and precOut[v] list v's precedence predecessors and
	// successors across all edge kinds, each neighbor once, in the order
	// its first edge was added. AddEdge keeps them, testing membership on
	// the destination's in-list: in-lists stay short (an operation has a
	// few operands) even where out-lists do not (the Long Echo Canceler
	// has a node with 256 successors).
	precIn  [][]NodeID
	precOut [][]NodeID

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

	// names is the lazily built name index behind NodeByName. Like the
	// oracle it is not part of Clone, and AddNode drops it.
	names atomic.Pointer[map[string]NodeID]

	// memo is the lazily created per-structure slot; see StructMemo.
	// Unlike the oracle it is shared by Clone, and every structural
	// mutation drops it.
	memo atomic.Pointer[any]

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
	g.structChanged()
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Op: op})
	g.dataIn = append(g.dataIn, nil)
	g.dataOut = append(g.dataOut, nil)
	g.ctrlIn = append(g.ctrlIn, nil)
	g.ctrlOut = append(g.ctrlOut, nil)
	g.tempIn = append(g.tempIn, nil)
	g.tempOut = append(g.tempOut, nil)
	g.precIn = append(g.precIn, nil)
	g.precOut = append(g.precOut, nil)
	g.names.Store(nil)
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
	g.structChanged()
	g.nodes[v].Op = op
}

// structChanged records a change to the graph's structure (its nodes,
// their operations, or its data and control edges): it advances
// structGen and drops the per-structure memo.
func (g *Graph) structChanged() {
	g.structGen++
	g.memo.Store(nil)
}

// StructMemo returns the value in g's per-structure memo slot, storing
// mk() there first if the slot is empty. The slot belongs to the graph's
// structure — its nodes, their operations, and its data and control
// edges — and to nothing else: Clone shares it with the clone, every
// structural mutation (AddNode, SetOp, a data or control AddEdge)
// empties it, and temporal edges, including ClearTemporalEdges, leave it
// alone. A package that keeps results there must derive them from the
// structure only; cdfg never looks inside. Like Oracle, StructMemo is
// safe for concurrent use by readers of an unchanging graph, and
// concurrent first callers all get the value one of them stored.
func (g *Graph) StructMemo(mk func() any) any {
	for {
		if p := g.memo.Load(); p != nil {
			return *p
		}
		v := mk()
		if g.memo.CompareAndSwap(nil, &v) {
			return v
		}
	}
}

// NodeByName returns the node with the given name (the first one, should
// Validate's uniqueness rule be broken). It is safe for concurrent use by
// readers of an unchanging graph.
func (g *Graph) NodeByName(name string) (Node, bool) {
	id, ok := g.nameIndex()[name]
	if !ok {
		return Node{}, false
	}
	return g.nodes[id], true
}

// nameIndex returns the name -> ID map, building it on first use.
// Concurrent first callers may each build one; the maps are equal.
func (g *Graph) nameIndex() map[string]NodeID {
	if m := g.names.Load(); m != nil {
		return *m
	}
	m := make(map[string]NodeID, len(g.nodes))
	for _, n := range g.nodes {
		if _, dup := m[n.Name]; !dup {
			m[n.Name] = n.ID
		}
	}
	g.names.Store(&m)
	return m
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
		g.structChanged()
		g.dataIn[to] = append(g.dataIn[to], from)
		g.dataOut[from] = append(g.dataOut[from], to)
		g.link(from, to)
	case ControlEdge:
		if contains(g.ctrlIn[to], from) {
			return fmt.Errorf("cdfg: duplicate control edge %s->%s", g.nodes[from].Name, g.nodes[to].Name)
		}
		g.structChanged()
		g.ctrlIn[to] = append(g.ctrlIn[to], from)
		g.ctrlOut[from] = append(g.ctrlOut[from], to)
		g.link(from, to)
	case TemporalEdge:
		if contains(g.tempIn[to], from) {
			return fmt.Errorf("cdfg: duplicate temporal edge %s->%s", g.nodes[from].Name, g.nodes[to].Name)
		}
		g.tempGen++
		g.temporal = append(g.temporal, Edge{From: from, To: to, Kind: TemporalEdge})
		g.tempIn[to] = append(g.tempIn[to], from)
		g.tempOut[from] = append(g.tempOut[from], to)
		g.link(from, to)
	default:
		return fmt.Errorf("cdfg: unknown edge kind %v", kind)
	}
	return nil
}

// link records from -> to in the deduplicated precedence adjacency.
func (g *Graph) link(from, to NodeID) {
	if !contains(g.precIn[to], from) {
		g.precIn[to] = append(g.precIn[to], from)
		g.precOut[from] = append(g.precOut[from], to)
	}
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
		g.precIn[i] = g.precIn[i][:0]
		g.precOut[i] = g.precOut[i][:0]
	}
	for v := range g.nodes {
		for _, u := range g.dataIn[v] {
			g.link(u, NodeID(v))
		}
		for _, u := range g.ctrlIn[v] {
			g.link(u, NodeID(v))
		}
	}
}

// PredsAll appends to dst the precedence predecessors of v across all edge
// kinds, each once, and returns the result. The order is that of the
// first edge from each predecessor.
func (g *Graph) PredsAll(dst []NodeID, v NodeID) []NodeID {
	return append(dst, g.precIn[v]...)
}

// SuccsAll appends to dst the precedence successors of v across all edge
// kinds, each once, and returns the result. The order is that of the
// first edge to each successor.
func (g *Graph) SuccsAll(dst []NodeID, v NodeID) []NodeID {
	return append(dst, g.precOut[v]...)
}

// Clone returns a deep copy of the graph. The clone carries the source's
// generation counters but starts with a cold PathOracle of its own, so
// cached analyses never leak across graph identities. It shares the
// source's per-structure memo (StructMemo) until either graph's
// structure changes.
func (g *Graph) Clone() *Graph {
	c := New(len(g.nodes))
	c.nodes = append(c.nodes[:0], g.nodes...)
	c.dataIn = cloneAdj(g.dataIn)
	c.dataOut = cloneAdj(g.dataOut)
	c.ctrlIn = cloneAdj(g.ctrlIn)
	c.ctrlOut = cloneAdj(g.ctrlOut)
	c.tempIn = cloneAdj(g.tempIn)
	c.tempOut = cloneAdj(g.tempOut)
	c.precIn = cloneAdj(g.precIn)
	c.precOut = cloneAdj(g.precOut)
	c.temporal = append([]Edge(nil), g.temporal...)
	c.structGen = g.structGen
	c.tempGen = g.tempGen
	c.memo.Store(g.memo.Load())
	return c
}

// cloneAdj copies the lists of a into one backing array. Each copy is a
// full slice expression whose capacity ends at its own length, so an
// append on the clone reallocates instead of writing into the next
// node's list.
func cloneAdj(a [][]NodeID) [][]NodeID {
	total := 0
	for _, l := range a {
		total += len(l)
	}
	flat := make([]NodeID, 0, total)
	out := make([][]NodeID, len(a))
	for i, l := range a {
		if len(l) > 0 {
			start := len(flat)
			flat = append(flat, l...)
			out[i] = flat[start:len(flat):len(flat)]
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
// emitted first (Kahn's algorithm with the ready nodes in a min-heap).
func (g *Graph) TopoOrder() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int32, n)
	// Ready nodes listed in ascending ID order already form a heap.
	var ready idHeap
	for v := 0; v < n; v++ {
		indeg[v] = int32(len(g.precIn[v]))
		if indeg[v] == 0 {
			ready = append(ready, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(ready) > 0 {
		v := ready.pop()
		order = append(order, v)
		for _, w := range g.precOut[v] {
			if indeg[w]--; indeg[w] == 0 {
				ready.push(w)
			}
		}
	}
	if len(order) != n {
		return nil, cycleError(len(order), n)
	}
	return order, nil
}

func cycleError(ordered, n int) error {
	return fmt.Errorf("cdfg: graph has a precedence cycle (%d of %d nodes ordered)", ordered, n)
}

// idHeap is a binary min-heap of node IDs.
type idHeap []NodeID

func (h *idHeap) push(v NodeID) {
	q := append(*h, v)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	*h = q
}

func (h *idHeap) pop() NodeID {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1] < q[c] {
			c++
		}
		if q[i] <= q[c] {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// HasPath reports whether there is a precedence path (over all edge kinds)
// from src to dst.
func (g *Graph) HasPath(src, dst NodeID) bool {
	var r Reach
	return r.Path(g, nil, src, dst)
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

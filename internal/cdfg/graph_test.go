package cdfg

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// diamond builds in->a->{b,c}->d->out, a classic reconvergent graph.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New(8)
	in := g.AddNode("in", OpInput)
	a := g.AddNode("a", OpAdd)
	b := g.AddNode("b", OpMul)
	c := g.AddNode("c", OpSub)
	d := g.AddNode("d", OpAdd)
	out := g.AddNode("out", OpOutput)
	g.MustAddEdge(in, a, DataEdge)
	g.MustAddEdge(in, a, DataEdge) // a = in + in
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(in, b, DataEdge)
	g.MustAddEdge(a, c, DataEdge)
	g.MustAddEdge(in, c, DataEdge)
	g.MustAddEdge(b, d, DataEdge)
	g.MustAddEdge(c, d, DataEdge)
	g.MustAddEdge(d, out, DataEdge)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0)
	for i := 0; i < 5; i++ {
		id := g.AddNode(string(rune('a'+i)), OpAdd)
		if int(id) != i {
			t.Fatalf("node %d got id %d", i, id)
		}
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
}

func TestNodeByName(t *testing.T) {
	g := diamond(t)
	n, ok := g.NodeByName("c")
	if !ok || n.Op != OpSub {
		t.Fatalf("NodeByName(c) = %+v, %v", n, ok)
	}
	if _, ok := g.NodeByName("zz"); ok {
		t.Fatal("found nonexistent node")
	}
}

func TestMustNodePanics(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustNode on missing name did not panic")
		}
	}()
	g.MustNode("nope")
}

func TestSelfLoopRejected(t *testing.T) {
	g := New(2)
	a := g.AddNode("a", OpAdd)
	if err := g.AddEdge(a, a, DataEdge); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestDuplicateTemporalEdgeRejected(t *testing.T) {
	g := New(2)
	a := g.AddNode("a", OpAdd)
	b := g.AddNode("b", OpAdd)
	if err := g.AddEdge(a, b, TemporalEdge); err != nil {
		t.Fatalf("first temporal edge: %v", err)
	}
	if err := g.AddEdge(a, b, TemporalEdge); err == nil {
		t.Fatal("duplicate temporal edge accepted")
	}
}

func TestEdgeOutOfRange(t *testing.T) {
	g := New(1)
	a := g.AddNode("a", OpAdd)
	if err := g.AddEdge(a, NodeID(99), DataEdge); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := g.AddEdge(NodeID(-1), a, DataEdge); err == nil {
		t.Fatal("negative edge accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[NodeID]int{}
	for i, v := range order {
		pos[v] = i
	}
	for _, n := range g.Nodes() {
		for _, u := range g.DataIn(n.ID) {
			if pos[u] >= pos[n.ID] {
				t.Fatalf("topo violates edge %s->%s", g.Node(u).Name, n.Name)
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New(3)
	a := g.AddNode("a", OpAdd)
	b := g.AddNode("b", OpAdd)
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(b, a, ControlEdge)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTemporalEdgeInPrecedence(t *testing.T) {
	g := New(3)
	a := g.AddNode("a", OpAdd)
	b := g.AddNode("b", OpAdd)
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(b, a, TemporalEdge)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("temporal cycle not detected")
	}
}

func TestClearTemporalEdges(t *testing.T) {
	g := diamond(t)
	b, c := g.MustNode("b"), g.MustNode("c")
	g.MustAddEdge(b, c, TemporalEdge)
	if len(g.TemporalEdges()) != 1 {
		t.Fatalf("temporal edges = %d", len(g.TemporalEdges()))
	}
	g.ClearTemporalEdges()
	if len(g.TemporalEdges()) != 0 {
		t.Fatal("temporal edges survive Clear")
	}
	if len(g.TemporalIn(c)) != 0 || len(g.TemporalOut(b)) != 0 {
		t.Fatal("temporal adjacency survives Clear")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.AddNode("extra", OpAdd)
	c.MustAddEdge(c.MustNode("b"), c.MustNode("c"), TemporalEdge)
	if g.Len() == c.Len() {
		t.Fatal("clone shares node storage")
	}
	if len(g.TemporalEdges()) != 0 {
		t.Fatal("clone shares temporal edges")
	}
	if g.String() == c.String() {
		t.Fatal("clone not independent")
	}
}

// TestCloneAppendLeavesSiblings: a clone's adjacency lists share one
// backing array per kind, so an edge added on the clone must reallocate
// the lists it grows. For every edge the diamond can take, the original
// keeps all its lists and the clone keeps every list the edge does not
// grow: the in-lists of its head and the out-lists of its tail.
func TestCloneAppendLeavesSiblings(t *testing.T) {
	g := diamond(t)
	g.MustAddEdge(g.MustNode("b"), g.MustNode("c"), ControlEdge)
	g.MustAddEdge(g.MustNode("a"), g.MustNode("d"), TemporalEdge)
	snapshot := func(g *Graph) [][][]NodeID {
		var out [][][]NodeID
		for _, adj := range [][][]NodeID{g.dataIn, g.dataOut, g.ctrlIn, g.ctrlOut, g.tempIn, g.tempOut, g.precIn, g.precOut} {
			kind := make([][]NodeID, len(adj))
			for v, l := range adj {
				kind[v] = slices.Clone(l)
			}
			out = append(out, kind)
		}
		return out
	}
	want := snapshot(g)
	edges := 0
	for _, kind := range []EdgeKind{DataEdge, ControlEdge, TemporalEdge} {
		for from := NodeID(0); int(from) < g.Len(); from++ {
			for to := NodeID(0); int(to) < g.Len(); to++ {
				c := g.Clone()
				if c.AddEdge(from, to, kind) != nil {
					continue
				}
				edges++
				for k, lists := range snapshot(g) {
					for v, l := range lists {
						if !slices.Equal(l, want[k][v]) {
							t.Fatalf("%v edge %d->%d on the clone changed the original's list %d of node %d", kind, from, to, k, v)
						}
					}
				}
				for k, lists := range snapshot(c) {
					in := k%2 == 0 // the snapshot alternates in- and out-lists
					for v, l := range lists {
						grown := (in && NodeID(v) == to) || (!in && NodeID(v) == from)
						if !grown && !slices.Equal(l, want[k][v]) {
							t.Fatalf("%v edge %d->%d changed the clone's list %d of node %d: %v, was %v", kind, from, to, k, v, l, want[k][v])
						}
					}
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no edge could be added")
	}
}

func TestHasPath(t *testing.T) {
	g := diamond(t)
	in, d := g.MustNode("in"), g.MustNode("d")
	if !g.HasPath(in, d) {
		t.Fatal("no path in->d")
	}
	if g.HasPath(d, in) {
		t.Fatal("phantom path d->in")
	}
	if !g.HasPath(d, d) {
		t.Fatal("HasPath(v,v) should be true")
	}
}

func TestEdgeCount(t *testing.T) {
	g := diamond(t)
	data, ctrl, temp := g.EdgeCount()
	if data != 9 || ctrl != 0 || temp != 0 {
		t.Fatalf("EdgeCount = %d,%d,%d; want 9,0,0", data, ctrl, temp)
	}
}

func TestComputationalAndBoundaries(t *testing.T) {
	g := diamond(t)
	if got := len(g.Computational()); got != 4 {
		t.Fatalf("computational = %d, want 4", got)
	}
	if got := len(g.Inputs()); got != 1 {
		t.Fatalf("inputs = %d, want 1", got)
	}
	if got := len(g.Outputs()); got != 1 {
		t.Fatalf("outputs = %d, want 1", got)
	}
}

func TestValidateCatchesDuplicateNames(t *testing.T) {
	g := New(2)
	g.AddNode("x", OpAdd)
	g.AddNode("x", OpAdd)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Validate = %v, want duplicate-name error", err)
	}
}

func TestValidateCatchesArity(t *testing.T) {
	g := New(2)
	g.AddNode("a", OpAdd) // zero inputs: arity violation
	if err := g.Validate(); err == nil {
		t.Fatal("arity violation accepted")
	}
}

func TestValidateOutputMayNotFanOut(t *testing.T) {
	g := New(3)
	a := g.AddNode("a", OpInput)
	o := g.AddNode("o", OpOutput)
	b := g.AddNode("b", OpUnit)
	g.MustAddEdge(a, o, DataEdge)
	g.MustAddEdge(o, b, DataEdge)
	if err := g.Validate(); err == nil {
		t.Fatal("output with consumers accepted")
	}
}

func TestPredsSuccsAllDeduplicate(t *testing.T) {
	g := New(3)
	a := g.AddNode("a", OpInput)
	b := g.AddNode("b", OpAdd)
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(a, b, ControlEdge)
	preds := g.PredsAll(nil, b)
	if len(preds) != 1 || preds[0] != a {
		t.Fatalf("PredsAll = %v, want [a]", preds)
	}
	succs := g.SuccsAll(nil, a)
	if len(succs) != 1 || succs[0] != b {
		t.Fatalf("SuccsAll = %v, want [b]", succs)
	}
}

func TestNodeMarks(t *testing.T) {
	var m NodeMarks
	m.Reset(4)
	if !m.Add(2) || m.Add(2) || !m.Has(2) || m.Has(1) {
		t.Fatal("Add/Has disagree on a fresh set")
	}
	m.Reset(8) // grows, and empties
	if m.Has(2) || !m.Add(7) {
		t.Fatal("Reset left a member or did not grow")
	}
	// The epoch counter wraps by clearing every stamp.
	m.epoch = math.MaxUint32
	m.stamp[3] = 1
	m.Reset(8)
	if m.epoch != 1 || m.Has(3) || m.Has(7) {
		t.Fatalf("after wrap: epoch %d, Has(3)=%v Has(7)=%v", m.epoch, m.Has(3), m.Has(7))
	}
}

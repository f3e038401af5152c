package cdfg

import (
	"reflect"
	"testing"
	"testing/quick"
)

// chain builds in -> n computational ops in a line -> out.
func chain(t *testing.T, n int) *Graph {
	t.Helper()
	g := New(n + 2)
	prev := g.AddNode("in", OpInput)
	for i := 0; i < n; i++ {
		v := g.AddNode("c"+string(rune('0'+i)), OpMulConst)
		g.MustAddEdge(prev, v, DataEdge)
		prev = v
	}
	out := g.AddNode("out", OpOutput)
	g.MustAddEdge(prev, out, DataEdge)
	if err := g.Validate(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	return g
}

func TestCriticalPathChain(t *testing.T) {
	for n := 1; n <= 6; n++ {
		g := chain(t, n)
		cp, err := g.CriticalPath()
		if err != nil {
			t.Fatal(err)
		}
		if cp != n {
			t.Fatalf("chain(%d): critical path %d, want %d", n, cp, n)
		}
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := diamond(t)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 3 { // a -> b|c -> d
		t.Fatalf("critical path %d, want 3", cp)
	}
}

func TestLaxitiesOnDiamond(t *testing.T) {
	g := diamond(t)
	lax, err := g.Laxities()
	if err != nil {
		t.Fatal(err)
	}
	// Every computational node of the diamond lies on a longest path of
	// length 3 (a->b->d and a->c->d), so all laxities are 3; the
	// input/output contribute 0 weight and also sit on those paths.
	for _, name := range []string{"a", "b", "c", "d"} {
		if lax[g.MustNode(name)] != 3 {
			t.Fatalf("laxity(%s) = %d, want 3", name, lax[g.MustNode(name)])
		}
	}
}

func TestLaxityOffCriticalNode(t *testing.T) {
	// in -> a -> b -> c -> out, plus side: in -> s -> c (short path).
	g := New(8)
	in := g.AddNode("in", OpInput)
	a := g.AddNode("a", OpMulConst)
	b := g.AddNode("b", OpMulConst)
	c := g.AddNode("c", OpAdd)
	s := g.AddNode("s", OpMulConst)
	out := g.AddNode("out", OpOutput)
	g.MustAddEdge(in, a, DataEdge)
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(b, c, DataEdge)
	g.MustAddEdge(in, s, DataEdge)
	g.MustAddEdge(s, c, DataEdge)
	g.MustAddEdge(c, out, DataEdge)
	lax, err := g.Laxities()
	if err != nil {
		t.Fatal(err)
	}
	if lax[a] != 3 || lax[b] != 3 || lax[c] != 3 {
		t.Fatalf("critical spine laxities = %d,%d,%d, want 3", lax[a], lax[b], lax[c])
	}
	if lax[s] != 2 { // longest path through s: in->s->c = 2 ops
		t.Fatalf("laxity(s) = %d, want 2", lax[s])
	}
}

func TestLongestPathsIncludeTemporal(t *testing.T) {
	g := New(4)
	a := g.AddNode("a", OpMulConst)
	b := g.AddNode("b", OpMulConst)
	in := g.AddNode("in", OpInput)
	g.MustAddEdge(in, a, DataEdge)
	g.MustAddEdge(in, b, DataEdge)
	g.MustAddEdge(a, b, TemporalEdge)

	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 1 {
		t.Fatalf("data critical path = %d, want 1", cp)
	}
	to, err := g.LongestTo(PathOpts{IncludeTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if to[b] != 2 {
		t.Fatalf("temporal-aware longest-to(b) = %d, want 2", to[b])
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	d := g.MustNode("d")
	levels, err := g.Levels(d)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"d": 0, "b": 1, "c": 1, "a": 2, "in": 3, "out": -1}
	for name, lvl := range want {
		if levels[g.MustNode(name)] != lvl {
			t.Fatalf("level(%s) = %d, want %d", name, levels[g.MustNode(name)], lvl)
		}
	}
}

// TestLevelsCycles: Levels walks only the root's data fan-in cone, so a
// data cycle inside the cone is an error and one elsewhere is not.
func TestLevelsCycles(t *testing.T) {
	g := New(6)
	in := g.AddNode("in", OpInput)
	a := g.AddNode("a", OpAdd)
	b := g.AddNode("b", OpAdd)
	c := g.AddNode("c", OpMul)
	x := g.AddNode("x", OpAdd)
	y := g.AddNode("y", OpAdd)
	g.MustAddEdge(in, a, DataEdge)
	g.MustAddEdge(a, b, DataEdge)
	g.MustAddEdge(b, a, DataEdge) // a <-> b
	g.MustAddEdge(b, c, DataEdge)
	g.MustAddEdge(in, x, DataEdge)
	g.MustAddEdge(x, y, DataEdge)
	for _, root := range []NodeID{a, b, c} {
		if _, err := g.Levels(root); err == nil {
			t.Errorf("Levels(%s) accepted the a<->b data cycle in its cone", g.Node(root).Name)
		}
	}
	levels, err := g.Levels(y)
	if err != nil {
		t.Fatalf("Levels(y) failed on a cycle outside its cone: %v", err)
	}
	if want := []int{2, -1, -1, -1, 1, 0}; !reflect.DeepEqual(levels, want) {
		t.Fatalf("Levels(y) = %v, want %v", levels, want)
	}
}

func TestFaninTreeDistances(t *testing.T) {
	g := diamond(t)
	d := g.MustNode("d")
	tree, err := g.FaninTree(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 3 { // d, b, c
		t.Fatalf("fanin(d,1) size = %d, want 3", len(tree))
	}
	tree, err = g.FaninTree(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) != 5 { // everything except out
		t.Fatalf("fanin(d,10) size = %d, want 5", len(tree))
	}
	if tree[g.MustNode("in")] != 2 {
		t.Fatalf("dist(in) = %d, want 2 (shortest backward distance)", tree[g.MustNode("in")])
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond(t)
	keep := []NodeID{g.MustNode("a"), g.MustNode("b"), g.MustNode("d")}
	res, err := g.InducedSubgraph(keep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Len() != 3 {
		t.Fatalf("subgraph size = %d, want 3", res.Graph.Len())
	}
	data, _, _ := res.Graph.EdgeCount()
	if data != 2 { // a->b, b->d survive; c edges dropped
		t.Fatalf("subgraph data edges = %d, want 2", data)
	}
	// Mapping round-trip.
	for orig, sub := range res.ToSub {
		if res.ToOrig[sub] != orig {
			t.Fatalf("mapping mismatch for %d", orig)
		}
		if g.Node(orig).Name != res.Graph.Node(sub).Name {
			t.Fatalf("name mismatch for %d", orig)
		}
	}
}

func TestInducedSubgraphRejectsDuplicates(t *testing.T) {
	g := diamond(t)
	a := g.MustNode("a")
	if _, err := g.InducedSubgraph([]NodeID{a, a}); err == nil {
		t.Fatal("duplicate keep-set accepted")
	}
}

// Property: for random layered DAGs, laxity of every node is at least the
// node weight and at most the critical path; nodes on the longest chain
// have laxity equal to the critical path.
func TestLaxityBoundsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		g := randomDAG(seed, 18)
		cp, err := g.CriticalPath()
		if err != nil {
			return false
		}
		lax, err := g.Laxities()
		if err != nil {
			return false
		}
		sawCP := false
		for _, n := range g.Nodes() {
			if !n.Op.IsComputational() {
				continue
			}
			l := lax[n.ID]
			if l < 1 || l > cp {
				return false
			}
			if l == cp {
				sawCP = true
			}
		}
		return sawCP || cp == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopoOrder is a permutation consistent with HasPath.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed uint32) bool {
		g := randomDAG(seed, 14)
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		if len(order) != g.Len() {
			return false
		}
		pos := map[NodeID]int{}
		for i, v := range order {
			pos[v] = i
		}
		for _, n := range g.Nodes() {
			for _, u := range g.DataIn(n.ID) {
				if pos[u] >= pos[n.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomDAG builds a small random-but-deterministic DAG for property
// tests: node i may receive edges only from lower-numbered nodes, so the
// result is acyclic by construction.
func randomDAG(seed uint32, n int) *Graph {
	g := New(n + 2)
	rng := seed
	next := func(m int) int {
		rng = rng*1664525 + 1013904223
		return int(rng>>16) % m
	}
	in := g.AddNode("in", OpInput)
	ids := []NodeID{in}
	ops := []Op{OpAdd, OpMul, OpSub, OpMulConst}
	for i := 0; i < n; i++ {
		op := ops[next(len(ops))]
		v := g.AddNode("n"+itoa(i), op)
		// At least one incoming edge; OpAdd/OpMul/OpSub need two.
		k := 1
		if op != OpMulConst {
			k = 2
		}
		for j := 0; j < k; j++ {
			g.MustAddEdge(ids[next(len(ids))], v, DataEdge)
		}
		ids = append(ids, v)
	}
	return g
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

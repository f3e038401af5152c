package cdfg

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// precedenceBytes hands out fuzz bytes, then zeros once they run out.
type precedenceBytes []byte

func (r *precedenceBytes) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzPrecedence builds from r a graph of up to 40 nodes whose IDs are a
// byte-chosen permutation of their topological positions, with data edges
// (a repeated input models one value feeding two slots), control and
// temporal edges that may repeat a data edge's pair, and sometimes one
// wide fan-out node; plus pending edges, a weight table and a temporal
// edge weight. Edges run forward in position order, except that every
// eighth graph gets a backward temporal edge and every eighth pending
// list a backward pending edge, which may close a cycle.
func fuzzPrecedence(r *precedenceBytes) (g *Graph, pending []Edge, weight WeightFunc, tempW int) {
	n := 2 + r.next()%39
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.next() % (i + 1)
		pos[i], pos[j] = pos[j], pos[i]
	}
	idAt := make([]NodeID, n)
	for id, p := range pos {
		idAt[p] = NodeID(id)
	}
	ops := []Op{OpAdd, OpMul, OpSub, OpInput, OpConst, OpDelay, OpUnit}
	g = New(n)
	for id := 0; id < n; id++ {
		op := OpInput
		if pos[id] > 0 {
			op = ops[r.next()%len(ops)]
		}
		g.AddNode(fmt.Sprintf("n%d", id), op)
	}
	// forward picks a pair (a, b) with a before b in position order.
	forward := func() (NodeID, NodeID) {
		b := 1 + r.next()%(n-1)
		a := r.next() % b
		return idAt[a], idAt[b]
	}
	for p := 1; p < n; p++ {
		for k := r.next() % 4; k > 0; k-- {
			g.MustAddEdge(idAt[r.next()%p], idAt[p], DataEdge)
		}
	}
	if r.next()%4 == 0 {
		// A wide fan-out: the first node feeds most of the others.
		for p := 1; p < n; p++ {
			if r.next()%4 != 0 {
				g.MustAddEdge(idAt[0], idAt[p], DataEdge)
			}
		}
	}
	for k := r.next() % 6; k > 0; k-- {
		a, b := forward()
		_ = g.AddEdge(a, b, ControlEdge) // a repeated pair is rejected; fine
	}
	for k := r.next() % 8; k > 0; k-- {
		a, b := forward()
		_ = g.AddEdge(a, b, TemporalEdge)
	}
	if r.next()%8 == 0 {
		a, b := forward()
		_ = g.AddEdge(b, a, TemporalEdge)
	}
	for k := r.next() % 6; k > 0; k-- {
		a, b := forward()
		pending = append(pending, Edge{From: a, To: b, Kind: TemporalEdge})
	}
	if r.next()%8 == 0 {
		a, b := forward()
		pending = append(pending, Edge{From: b, To: a, Kind: TemporalEdge})
	}
	var table [int(opSentinel)]int
	for op := range table {
		table[op] = r.next() % 4
	}
	if r.next()%2 == 0 {
		weight = func(op Op) int { return table[op] }
	}
	tempW = r.next()%5 - 1
	return g, pending, weight, tempW
}

// withPending returns a copy of g with the pending edges inserted as
// temporal edges — what the pending-edge-aware passes must agree with.
// A pending edge repeating a temporal one is already there.
func withPending(g *Graph, pending []Edge) *Graph {
	c := g.Clone()
	for _, e := range pending {
		_ = c.AddEdge(e.From, e.To, TemporalEdge)
	}
	return c
}

// allPairs lists every ordered node pair of g.
func allPairs(g *Graph) [][2]NodeID {
	var out [][2]NodeID
	for a := 0; a < g.Len(); a++ {
		for b := 0; b < g.Len(); b++ {
			out = append(out, [2]NodeID{NodeID(a), NodeID(b)})
		}
	}
	return out
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// checkPrecedence fails t unless every precedence pass agrees with its
// reference on g: TopoOrder, the PredsAll/SuccsAll sets, NodeByName,
// LongestTo/LongestFrom, the PathOracle entries and HasPath; and, with
// every prefix of pending as the pending edges, WeightedLongest and
// reachability between the given pairs and from the prefix's endpoints.
// It repeats the adjacency checks after Clone and after
// ClearTemporalEdges.
func checkPrecedence(t testing.TB, g *Graph, pending []Edge, weight WeightFunc, tempW int, pairs [][2]NodeID) {
	t.Helper()
	checkAdjacency(t, "graph", g)
	checkAdjacency(t, "clone", g.Clone())

	for _, opts := range []PathOpts{{}, {IncludeTemporal: true}, {Weight: weight}, {IncludeTemporal: true, Weight: weight}} {
		to, err := g.LongestTo(opts)
		refTo, refErr := g.longestToReference(opts)
		if !sameErr(err, refErr) || !slices.Equal(to, refTo) {
			t.Fatalf("LongestTo(%+v) = %v, %v; reference %v, %v", opts, to, err, refTo, refErr)
		}
		from, err := g.LongestFrom(opts)
		refFrom, refErr := g.longestFromReference(opts)
		if !sameErr(err, refErr) || !slices.Equal(from, refFrom) {
			t.Fatalf("LongestFrom(%+v) = %v, %v; reference %v, %v", opts, from, err, refFrom, refErr)
		}
		oTo, oFrom, err := g.Oracle().Longest(opts)
		if !sameErr(err, refErr) || !slices.Equal(oTo, refTo) || !slices.Equal(oFrom, refFrom) {
			t.Fatalf("oracle Longest(%+v) = %v, %v, %v; reference %v, %v", opts, oTo, oFrom, err, refTo, refFrom)
		}
	}
	refTo, refFrom, refErr := g.temporalWeightedReference(weight, tempW)
	to, from, err := g.Oracle().TemporalWeighted(weight, tempW)
	if !sameErr(err, refErr) || !slices.Equal(to, refTo) || !slices.Equal(from, refFrom) {
		t.Fatalf("TemporalWeighted = %v, %v, %v; reference %v, %v, %v", to, from, err, refTo, refFrom, refErr)
	}

	for _, p := range pairs {
		if got, want := g.HasPath(p[0], p[1]), g.hasPathReference(p[0], p[1]); got != want {
			t.Fatalf("HasPath(%d, %d) = %v, reference %v", p[0], p[1], got, want)
		}
	}

	// Pending edges, every prefix as the encoder sees them: against the
	// references on the graph with the prefix inserted, through one
	// scratch and one walk reused throughout.
	var ps PathScratch
	var walk, fwd, bwd Reach
	for k := 0; k <= len(pending); k++ {
		prefix := pending[:k]
		ext := withPending(g, prefix)
		refTo, refFrom, refErr := ext.temporalWeightedReference(weight, tempW)
		to, from, err := g.WeightedLongest(&ps, weight, tempW, prefix)
		if !sameErr(err, refErr) || !slices.Equal(to, refTo) || !slices.Equal(from, refFrom) {
			t.Fatalf("WeightedLongest(pending %v) = %v, %v, %v; reference %v, %v, %v",
				prefix, to, from, err, refTo, refFrom, refErr)
		}
		for _, p := range pairs {
			if got, want := walk.Path(g, prefix, p[0], p[1]), ext.hasPathReference(p[0], p[1]); got != want {
				t.Fatalf("Path(%d, %d) with pending %v = %v, reference %v", p[0], p[1], prefix, got, want)
			}
		}
		// Multi-seed walks from the prefix's heads, and back from its
		// tails, as the speculation check runs them.
		var heads, tails []NodeID
		for _, e := range prefix {
			heads, tails = append(heads, e.To), append(tails, e.From)
		}
		fwd.Walk(g, prefix, false, None, heads...)
		bwd.Walk(g, prefix, true, None, tails...)
		wantFwd, wantBwd := ext.reachReference(heads, false), ext.reachReference(tails, true)
		for v := NodeID(0); int(v) < g.Len(); v++ {
			if fwd.Reached(v) != wantFwd[v] || bwd.Reached(v) != wantBwd[v] {
				t.Fatalf("node %d: forward walk %v (reference %v), backward walk %v (reference %v)",
					v, fwd.Reached(v), wantFwd[v], bwd.Reached(v), wantBwd[v])
			}
		}
	}

	cleared := g.Clone()
	cleared.ClearTemporalEdges()
	checkAdjacency(t, "cleared", cleared)
}

// checkAdjacency compares TopoOrder, PredsAll/SuccsAll and NodeByName on g
// with their references.
func checkAdjacency(t testing.TB, what string, g *Graph) {
	t.Helper()
	order, err := g.TopoOrder()
	refOrder, refErr := g.topoOrderReference()
	if !sameErr(err, refErr) || !slices.Equal(order, refOrder) {
		t.Fatalf("%s: TopoOrder = %v, %v; reference %v, %v", what, order, err, refOrder, refErr)
	}
	sorted := func(l []NodeID) []NodeID {
		l = slices.Clone(l)
		slices.Sort(l)
		return l
	}
	for v := NodeID(0); int(v) < g.Len(); v++ {
		preds, refPreds := sorted(g.PredsAll(nil, v)), sorted(g.predsAllReference(nil, v))
		succs, refSuccs := sorted(g.SuccsAll(nil, v)), sorted(g.succsAllReference(nil, v))
		if !slices.Equal(preds, refPreds) || !slices.Equal(succs, refSuccs) {
			t.Fatalf("%s: node %d: PredsAll %v SuccsAll %v; reference %v and %v", what, v, preds, succs, refPreds, refSuccs)
		}
		name := g.Node(v).Name
		n, ok := g.NodeByName(name)
		refN, refOK := g.nodeByNameReference(name)
		if !reflect.DeepEqual(n, refN) || ok != refOK {
			t.Fatalf("%s: NodeByName(%q) = %+v, %v; reference %+v, %v", what, name, n, ok, refN, refOK)
		}
	}
}

// FuzzPrecedenceMatchesReference checks the precedence passes on random
// graphs with random temporal and pending edges against the code they
// replaced. Its name keeps it clear of the unanchored -fuzz=FuzzParse
// pattern CI runs in this package.
func FuzzPrecedenceMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{38, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 3, 3, 3, 3, 0, 1, 2, 5, 5, 5, 7, 7, 0, 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := precedenceBytes(data)
		g, pending, weight, tempW := fuzzPrecedence(&r)
		checkPrecedence(t, g, pending, weight, tempW, allPairs(g))
	})
}

// TestPrecedenceMatchesReference runs the fuzz target's check over a fixed
// set of random graphs, so every test run covers it.
func TestPrecedenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 300; i++ {
		data := make([]byte, 64+rng.Intn(400))
		rng.Read(data)
		r := precedenceBytes(data)
		g, pending, weight, tempW := fuzzPrecedence(&r)
		checkPrecedence(t, g, pending, weight, tempW, allPairs(g))
	}
}

// TestNameIndexFollowsAddNode checks that NodeByName sees nodes added
// after a lookup built the index, and that a clone starts without it.
func TestNameIndexFollowsAddNode(t *testing.T) {
	g := New(2)
	g.AddNode("a", OpInput)
	if _, ok := g.NodeByName("b"); ok {
		t.Fatal("found b before adding it")
	}
	b := g.AddNode("b", OpAdd)
	if n, ok := g.NodeByName("b"); !ok || n.ID != b {
		t.Fatalf("NodeByName(b) = %+v, %v after AddNode", n, ok)
	}
	c := g.Clone()
	if c.names.Load() != nil {
		t.Fatal("Clone copied the name index")
	}
	c.AddNode("c", OpAdd)
	if _, ok := g.NodeByName("c"); ok {
		t.Fatal("the source sees a node added to its clone")
	}
	if _, ok := c.NodeByName("c"); !ok {
		t.Fatal("clone misses its own node")
	}
}

// TestNameIndexConcurrentReaders has several goroutines make the first
// lookups on one graph at once, as detections sharing a resident design
// do; run it under -race.
func TestNameIndexConcurrentReaders(t *testing.T) {
	g := New(64)
	for i := 0; i < 64; i++ {
		g.AddNode(fmt.Sprintf("n%d", i), OpAdd)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 63; i >= 0; i-- {
				if n, ok := g.NodeByName(fmt.Sprintf("n%d", i)); !ok || int(n.ID) != i {
					errs <- fmt.Sprintf("NodeByName(n%d) = %+v, %v", i, n, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

package order

import (
	"slices"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// asymmetricCone builds a graph where the two branches feeding the root
// differ in depth and operation mix, so C1–C3 fully separate the nodes:
//
//	in -> m1 -> m2 -> a1 \
//	in -> s1 ----------- root
func asymmetricCone(t *testing.T) (*cdfg.Graph, cdfg.NodeID) {
	t.Helper()
	g := cdfg.New(8)
	in := g.AddNode("in", cdfg.OpInput)
	m1 := g.AddNode("m1", cdfg.OpMulConst)
	m2 := g.AddNode("m2", cdfg.OpMulConst)
	a1 := g.AddNode("a1", cdfg.OpAdd)
	s1 := g.AddNode("s1", cdfg.OpMulConst)
	root := g.AddNode("root", cdfg.OpAdd)
	g.MustAddEdge(in, m1, cdfg.DataEdge)
	g.MustAddEdge(m1, m2, cdfg.DataEdge)
	g.MustAddEdge(m2, a1, cdfg.DataEdge)
	g.MustAddEdge(in, a1, cdfg.DataEdge)
	g.MustAddEdge(in, s1, cdfg.DataEdge)
	g.MustAddEdge(a1, root, cdfg.DataEdge)
	g.MustAddEdge(s1, root, cdfg.DataEdge)
	return g, root
}

func subtreeOf(t *testing.T, g *cdfg.Graph, root cdfg.NodeID, dist int) []cdfg.NodeID {
	t.Helper()
	tree, err := g.FaninTree(root, dist)
	if err != nil {
		t.Fatal(err)
	}
	var out []cdfg.NodeID
	for v := range tree {
		out = append(out, v)
	}
	return cdfg.SortedIDs(out)
}

func TestOrderLevelsDominate(t *testing.T) {
	g, root := asymmetricCone(t)
	res, err := Order(g, root, subtreeOf(t, g, root, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	// C1: deeper level sorts first. Levels w.r.t. root: in=4 (longest
	// path via m1), m1=3, m2=2, a1=1, s1=1, root=0.
	rank := func(name string) int { r, _ := res.Rank(g.MustNode(name)); return r }
	if rank("in") != 0 || rank("m1") != 1 || rank("m2") != 2 {
		t.Fatalf("level ordering broken: in=%d m1=%d m2=%d", rank("in"), rank("m1"), rank("m2"))
	}
	if rank("root") != len(res.Ordered)-1 {
		t.Fatalf("root should rank last, got %d", rank("root"))
	}
	if !res.Canonical {
		t.Fatal("asymmetric cone should be canonically ordered")
	}
}

func TestOrderTieBrokenByFanin(t *testing.T) {
	g, root := asymmetricCone(t)
	res, err := Order(g, root, subtreeOf(t, g, root, 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	// a1 and s1 are both level 1; a1 has the larger fan-in tree (C2).
	a1, _ := res.Rank(g.MustNode("a1"))
	s1, _ := res.Rank(g.MustNode("s1"))
	if a1 > s1 {
		t.Fatal("C2 should rank a1 before s1")
	}
}

func TestOrderRanksAreAPermutation(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	root, _ := designs.IIRSubtree(g)
	sub := subtreeOf(t, g, root, g.Len())
	res, err := Order(g, root, sub, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ordered) != len(sub) {
		t.Fatalf("ordered %d of %d nodes", len(res.Ordered), len(sub))
	}
	seen := map[int]bool{}
	for i, v := range res.Ordered {
		r, ok := res.Rank(v)
		if !ok || r != i {
			t.Fatalf("Rank(%s) = %d, %t; want %d, true", g.Node(v).Name, r, ok, i)
		}
		if seen[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		seen[r] = true
	}
	for v := cdfg.NodeID(0); int(v) < g.Len(); v++ {
		if slices.Contains(res.Ordered, v) {
			continue
		}
		if r, ok := res.Rank(v); ok || r != -1 {
			t.Fatalf("Rank of unordered node %s = %d, %t; want -1, false", g.Node(v).Name, r, ok)
		}
	}
}

func TestOrderDeterministicAcrossRebuilds(t *testing.T) {
	build := func() ([]string, bool) {
		g := designs.FourthOrderParallelIIR()
		root, _ := designs.IIRSubtree(g)
		res, err := Order(g, root, subtreeOf(t, g, root, g.Len()), 0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, v := range res.Ordered {
			names = append(names, g.Node(v).Name)
		}
		return names, res.Canonical
	}
	a, _ := build()
	b, _ := build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ordering differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// The IIR's two sections are exactly symmetric, so some positions can only
// be separated non-structurally; the result must say so.
func TestOrderReportsSymmetry(t *testing.T) {
	g := designs.FourthOrderParallelIIR()
	root, _ := designs.IIRSubtree(g)
	res, err := Order(g, root, subtreeOf(t, g, root, g.Len()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Canonical {
		t.Fatal("perfectly symmetric sections reported as canonically separable")
	}
}

func TestOrderErrors(t *testing.T) {
	g, root := asymmetricCone(t)
	if _, err := Order(g, root, nil, 0); err == nil {
		t.Fatal("empty subtree accepted")
	}
	// Subtree not containing root.
	if _, err := Order(g, root, []cdfg.NodeID{g.MustNode("m1")}, 0); err == nil {
		t.Fatal("rootless subtree accepted")
	}
	// Node outside the root's cone (out is not in fan-in of root).
	o := g.AddNode("out", cdfg.OpOutput)
	g.MustAddEdge(root, o, cdfg.DataEdge)
	if _, err := Order(g, root, []cdfg.NodeID{root, o}, 0); err == nil {
		t.Fatal("node outside cone accepted")
	}
}

func TestGlobalOrderCoversAllComputational(t *testing.T) {
	g := designs.EighthOrderCFIIR()
	res, err := Global(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ordered) != len(g.Computational()) {
		t.Fatalf("global order covers %d of %d", len(res.Ordered), len(g.Computational()))
	}
	// Deeper remaining path sorts first: the first section's input adder
	// has the longest path to the sink, the final section's output adder
	// the shortest.
	first := res.Ordered[0]
	last := res.Ordered[len(res.Ordered)-1]
	from, err := g.LongestFrom(cdfg.PathOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if from[first] < from[last] {
		t.Fatal("global order not descending in remaining path length")
	}
}

func TestGlobalOrderDeterministic(t *testing.T) {
	a, err := Global(designs.WaveletFilter(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Global(designs.WaveletFilter(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ordered {
		if a.Ordered[i] != b.Ordered[i] {
			t.Fatalf("global order differs at %d", i)
		}
	}
}

// TestOrderStableUnderRenumbering rebuilds a design with node IDs
// reversed and checks that wherever the ordering is canonical (separated
// by C1–C3 alone), the rank sequence names the same nodes — the property
// watermark detection on relabeled stolen designs depends on.
func TestOrderStableUnderRenumbering(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	// Rebuild with reversed IDs.
	n := g.Len()
	rev := cdfg.New(n)
	toNew := make([]cdfg.NodeID, n)
	nodes := g.Nodes()
	for i := n - 1; i >= 0; i-- {
		toNew[nodes[i].ID] = rev.AddNode(nodes[i].Name, nodes[i].Op)
	}
	for _, node := range nodes {
		for _, u := range g.DataIn(node.ID) {
			rev.MustAddEdge(toNew[u], toNew[node.ID], cdfg.DataEdge)
		}
		for _, u := range g.ControlIn(node.ID) {
			rev.MustAddEdge(toNew[u], toNew[node.ID], cdfg.ControlEdge)
		}
	}

	// Pick a root with a decent cone, same node in both graphs.
	var root cdfg.NodeID = cdfg.None
	for _, v := range g.Computational() {
		tree, err := g.FaninTree(v, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree) >= 12 {
			root = v
			break
		}
	}
	if root == cdfg.None {
		t.Skip("no suitable cone")
	}
	sub := func(gr *cdfg.Graph, r cdfg.NodeID) []cdfg.NodeID {
		tree, err := gr.FaninTree(r, 6)
		if err != nil {
			t.Fatal(err)
		}
		var out []cdfg.NodeID
		for v := range tree {
			out = append(out, v)
		}
		return cdfg.SortedIDs(out)
	}
	resA, err := Order(g, root, sub(g, root), 0)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Order(rev, toNew[root], sub(rev, toNew[root]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Ordered) != len(resB.Ordered) {
		t.Fatalf("cone sizes differ: %d vs %d", len(resA.Ordered), len(resB.Ordered))
	}
	if resA.Canonical != resB.Canonical {
		t.Fatalf("canonicality differs: %v vs %v", resA.Canonical, resB.Canonical)
	}
	if resA.Canonical {
		for i := range resA.Ordered {
			if toNew[resA.Ordered[i]] != resB.Ordered[i] {
				t.Fatalf("rank %d names %s in the original but %s in the renumbered graph",
					i, g.Node(resA.Ordered[i]).Name, rev.Node(resB.Ordered[i]).Name)
			}
		}
	} else {
		// Non-canonical positions may differ; canonicalized prefix classes
		// must still agree on names by construction of the keys. At
		// minimum the multiset of names per rank run must match; check
		// the name sequence where both agree pairwise.
		agree := 0
		for i := range resA.Ordered {
			if g.Node(resA.Ordered[i]).Name == rev.Node(resB.Ordered[i]).Name {
				agree++
			}
		}
		if agree*2 < len(resA.Ordered) {
			t.Fatalf("orderings agree on only %d of %d positions", agree, len(resA.Ordered))
		}
	}
}

func TestGlobalOrderEmptyGraph(t *testing.T) {
	g := cdfg.New(1)
	g.AddNode("in", cdfg.OpInput)
	if _, err := Global(g, 0); err == nil {
		t.Fatal("graph without computational nodes accepted")
	}
}

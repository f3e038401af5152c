package order

import (
	"fmt"
	"reflect"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// namedGraph is one registered design under test.
type namedGraph struct {
	name string
	g    *cdfg.Graph
}

// registeredDesigns builds every design the repository ships: the Table I
// (MediaBench-size layered) and Table II applications, the fourth-order
// IIR of the paper's example, and the transform kernels.
func registeredDesigns() []namedGraph {
	out := []namedGraph{
		{"iir4", designs.FourthOrderParallelIIR()},
		{"fft8", designs.FFTStage(8)},
		{"dct8", designs.DCT8()},
	}
	for _, row := range designs.Table2() {
		out = append(out, namedGraph{row.Name, row.Build()})
	}
	for _, row := range designs.Table1() {
		out = append(out, namedGraph{row.App.Name, designs.Layered(row.App.Cfg)})
	}
	return out
}

// eligibleRoots lists the nodes domain selection may pick as a root: the
// computational nodes with a computational data input.
func eligibleRoots(g *cdfg.Graph) []cdfg.NodeID {
	var out []cdfg.NodeID
	for _, v := range g.Computational() {
		for _, u := range g.DataIn(v) {
			if g.Node(u).Op.IsComputational() {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// cappedSubtree is root's fan-in tree at the largest distance (up to
// maxDist) whose tree still has at most maxNodes nodes, in ascending ID
// order; it always holds root and its distance-1 inputs.
func cappedSubtree(t testing.TB, g *cdfg.Graph, root cdfg.NodeID, maxDist, maxNodes int) []cdfg.NodeID {
	t.Helper()
	var tree map[cdfg.NodeID]int
	for d := 1; d <= maxDist; d++ {
		next, err := g.FaninTree(root, d)
		if err != nil {
			t.Fatal(err)
		}
		if tree != nil && (len(next) > maxNodes || len(next) == len(tree)) {
			break
		}
		tree = next
	}
	out := make([]cdfg.NodeID, 0, len(tree))
	for v := range tree {
		out = append(out, v)
	}
	return cdfg.SortedIDs(out)
}

// sameResult fails t unless got and want agree on every Result field.
func sameResult(t testing.TB, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Ordered, want.Ordered) ||
		got.Canonical != want.Canonical || got.MaxDepth != want.MaxDepth {
		t.Fatalf("%s: got Ordered=%v Canonical=%v MaxDepth=%d, reference Ordered=%v Canonical=%v MaxDepth=%d",
			what, got.Ordered, got.Canonical, got.MaxDepth, want.Ordered, want.Canonical, want.MaxDepth)
	}
}

func checkOrder(t testing.TB, ref *reference, root cdfg.NodeID, sub []cdfg.NodeID, maxDepth int, what string) {
	t.Helper()
	want, werr := ref.order(root, sub, maxDepth)
	got, gerr := Order(ref.g, root, sub, maxDepth)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, gerr, werr)
	}
	if werr == nil {
		sameResult(t, what, got, want)
	}
}

// TestOrderMatchesReference compares Order with the map-based reference
// at every eligible root of every registered design.
func TestOrderMatchesReference(t *testing.T) {
	for _, d := range registeredDesigns() {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			ref := newReference(d.g, true)
			for _, root := range eligibleRoots(d.g) {
				sub := cappedSubtree(t, d.g, root, 20, 64)
				checkOrder(t, ref, root, sub, 0, fmt.Sprintf("root %s", d.g.Node(root).Name))
			}
		})
	}
}

func TestGlobalMatchesReference(t *testing.T) {
	for _, d := range registeredDesigns() {
		for _, depth := range []int{0, 1, 3} {
			want, err := newReference(d.g, false).global(depth)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Global(d.g, depth)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s depth %d", d.name, depth), got, want)
		}
	}
}

// TestLevelsMatchesReference compares the cone-only cdfg.Levels with the
// whole-graph topological reference at every node of every design.
func TestLevelsMatchesReference(t *testing.T) {
	for _, d := range registeredDesigns() {
		ref := newReference(d.g, true)
		for v := 0; v < d.g.Len(); v++ {
			want, err := ref.levels(cdfg.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.g.Levels(cdfg.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Levels(%s) differs from the reference", d.name, d.g.Node(cdfg.NodeID(v)).Name)
			}
		}
	}
}

// TestFaninCountAndPhi checks K_i(x) and φ(n_i,x) on a diamond, from the
// reference's per-distance BFS and from one walk advanced a level at a
// time:
//
//	in -> a (twice) -> b, c;  in -> b, c;  b, c -> d -> out
func TestFaninCountAndPhi(t *testing.T) {
	g := cdfg.New(6)
	in := g.AddNode("in", cdfg.OpInput)
	a := g.AddNode("a", cdfg.OpAdd)
	b := g.AddNode("b", cdfg.OpMul)
	c := g.AddNode("c", cdfg.OpSub)
	d := g.AddNode("d", cdfg.OpAdd)
	out := g.AddNode("out", cdfg.OpOutput)
	for _, e := range [][2]cdfg.NodeID{{in, a}, {in, a}, {a, b}, {in, b}, {a, c}, {in, c}, {b, d}, {c, d}, {d, out}} {
		g.MustAddEdge(e[0], e[1], cdfg.DataEdge)
	}
	ops := func(vs ...cdfg.NodeID) int {
		sum := 0
		for _, v := range vs {
			sum += int(g.Node(v).Op)
		}
		return sum
	}
	want := []struct{ k, phi int }{
		{2, ops(d, b, c)},        // x = 1
		{4, ops(d, b, c, a, in)}, // x = 2: a and in, each once
		{4, ops(d, b, c, a, in)}, // x = 3: the tree is complete
	}
	var sc scratch
	sc.reset(g.Len(), 1)
	w := &sc.walks[0]
	for i, tc := range want {
		x := i + 1
		k, err := refFaninCount(g, d, x)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := refFaninPhi(g, d, x)
		if err != nil {
			t.Fatal(err)
		}
		sc.advance(g, d, w)
		if k != tc.k || phi != tc.phi || w.k != tc.k || w.phi != tc.phi {
			t.Fatalf("x=%d: reference (K, φ) = (%d, %d), walk (%d, %d), want (%d, %d)",
				x, k, phi, w.k, w.phi, tc.k, tc.phi)
		}
	}
}

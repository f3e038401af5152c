package order

import (
	"fmt"
	"reflect"
	"testing"

	"localwm/internal/cdfg"
)

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// fuzzDAG builds a data-flow DAG from r: up to 40 nodes with mixed
// operations and zero to three data inputs each (a repeated input models
// one value feeding two slots), plus a few control edges. Node IDs are a
// byte-chosen permutation of the topological positions, so ID order and
// flow order disagree the way they do in renumbered designs.
func fuzzDAG(r *byteReader) *cdfg.Graph {
	n := 2 + r.next()%39
	pos := make([]int, n) // pos[id] is the node's topological position
	for i := range pos {
		pos[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.next() % (i + 1)
		pos[i], pos[j] = pos[j], pos[i]
	}
	idAt := make([]cdfg.NodeID, n)
	for id, p := range pos {
		idAt[p] = cdfg.NodeID(id)
	}
	g := cdfg.New(n)
	for id := 0; id < n; id++ {
		// Position 0 is an input; elsewhere a small op alphabet makes
		// structural ties (and so deep refinement) common.
		op := cdfg.OpInput
		if pos[id] > 0 {
			op = []cdfg.Op{cdfg.OpAdd, cdfg.OpMul, cdfg.OpSub, cdfg.OpInput}[r.next()%4]
		}
		g.AddNode(fmt.Sprintf("n%d", id), op)
	}
	for p := 1; p < n; p++ {
		v := idAt[p]
		if g.Node(v).Op == cdfg.OpInput {
			continue
		}
		arity := 1 + r.next()%3
		for k := 0; k < arity; k++ {
			g.MustAddEdge(idAt[r.next()%p], v, cdfg.DataEdge)
		}
		if b := r.next(); b%8 == 0 {
			from := idAt[(b/8)%p]
			if !containsID(g.ControlOut(from), v) {
				g.MustAddEdge(from, v, cdfg.ControlEdge)
			}
		}
	}
	return g
}

func containsID(l []cdfg.NodeID, v cdfg.NodeID) bool {
	for _, u := range l {
		if u == v {
			return true
		}
	}
	return false
}

// FuzzOrderMatchesReference checks, on random DAGs, that Order at every
// eligible root (over byte-chosen subsets of its fan-in tree and depth
// caps), Global, and Levels at every node equal the map-based reference.
func FuzzOrderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{38, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255})
	f.Add([]byte("a symmetric adder tree hides in here somewhere, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		g := fuzzDAG(&r)
		ref := newReference(g, true)

		for v := 0; v < g.Len(); v++ {
			want, err := ref.levels(cdfg.NodeID(v))
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.Levels(cdfg.NodeID(v))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("Levels(%d) = %v, %v; reference %v", v, got, err, want)
			}
		}

		depth := r.next() % 6 // 0: the default cap
		for _, root := range eligibleRoots(g) {
			tree, err := g.FaninTree(root, 1+r.next()%8)
			if err != nil {
				t.Fatal(err)
			}
			// Keep root and a byte-chosen subset of the rest.
			sub := []cdfg.NodeID{root}
			for _, v := range cdfg.SortedIDs(keys(tree)) {
				if v != root && r.next()%4 != 0 {
					sub = append(sub, v)
				}
			}
			checkOrder(t, ref, root, sub, depth, fmt.Sprintf("root %d", root))
			// A node listed twice is refused (the map-based reference
			// appended its keys twice per round).
			if b := r.next(); b%16 == 0 {
				dup := append(sub, sub[(b/16)%len(sub)])
				if _, err := Order(g, root, dup, depth); err == nil {
					t.Fatalf("root %d: subtree %v with a repeated node accepted", root, dup)
				}
			}
		}

		if len(g.Computational()) > 0 {
			want, err := ref.global(depth)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Global(g, depth)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("Global depth %d", depth), got, want)
		}
	})
}

func keys(m map[cdfg.NodeID]int) []cdfg.NodeID {
	out := make([]cdfg.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	return out
}

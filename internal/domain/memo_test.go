package domain

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
)

// memoCfgs are the tree bounds the memo tests select under: the
// protocols' default and a non-default (MaxDist, MaxTreeSize).
var memoCfgs = []Config{{Tau: 20}, {Tau: 8, MaxDist: 5, MaxTreeSize: 12, IncludeNum: 3, IncludeDen: 4}}

// memoCase is one Select the memo tests make: a root, a config of
// memoCfgs, and the number of bits drawn from the stream beforehand.
type memoCase struct {
	root cdfg.NodeID
	ci   int
	skip int
}

// memoOutcome is what one Select yields: the domain or the error, and the
// next bits the stream emits after it.
type memoOutcome struct {
	d    *Domain
	err  string
	next int
}

type selectFunc func(*cdfg.Graph, *prng.Bitstream, cdfg.NodeID, Config) (*Domain, error)

// memoCases lists every eligible root of g, plus extra, under each config
// of memoCfgs at two bitstream positions.
func memoCases(g *cdfg.Graph, extra ...cdfg.NodeID) []memoCase {
	roots := append(EligibleRoots(g), extra...)
	var cs []memoCase
	for _, v := range roots {
		for ci := range memoCfgs {
			for _, skip := range []int{0, 37} {
				cs = append(cs, memoCase{v, ci, skip})
			}
		}
	}
	return cs
}

func runCase(sel selectFunc, g *cdfg.Graph, c memoCase) memoOutcome {
	bs := prng.MustBitstream([]byte(fmt.Sprintf("memo/%d/%d", c.root, c.ci)))
	for i := 0; i < c.skip; i++ {
		bs.Bit()
	}
	d, err := sel(g, bs, c.root, memoCfgs[c.ci])
	o := memoOutcome{d: d, next: bs.Intn(1 << 30)}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// refTable holds the uncached reference outcome of each case on one
// graph. The reference at a root depends only on the root's data fan-in
// cone, so after a structural mutation only the cases whose root's cone
// holds a mutated node, and new cases, are recomputed.
type refTable map[memoCase]memoOutcome

// update brings r up to date with g for the cases cs, recomputing every
// case whose root is in stale or that r lacks, and returns the outcomes
// in the order of cs.
func (r refTable) update(g *cdfg.Graph, cs []memoCase, stale map[cdfg.NodeID]bool) []memoOutcome {
	out := make([]memoOutcome, len(cs))
	for i, c := range cs {
		o, ok := r[c]
		if !ok || stale[c.root] {
			o = runCase(refSelect, g, c)
			r[c] = o
		}
		out[i] = o
	}
	return out
}

// downstream returns v and every node whose data fan-in cone holds v:
// the roots whose reference a mutation at v can change.
func downstream(g *cdfg.Graph, v cdfg.NodeID) map[cdfg.NodeID]bool {
	seen := map[cdfg.NodeID]bool{v: true}
	for queue := []cdfg.NodeID{v}; len(queue) > 0; queue = queue[1:] {
		for _, w := range g.DataOut(queue[0]) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// checkCases fails t unless Select agrees with want at every case.
func checkCases(t *testing.T, state string, g *cdfg.Graph, cs []memoCase, want []memoOutcome) {
	t.Helper()
	for i, c := range cs {
		got := runCase(Select, g, c)
		if !reflect.DeepEqual(got, want[i]) {
			var gotTo, wantTo []cdfg.NodeID
			if got.d != nil {
				gotTo = got.d.To
			}
			if want[i].d != nil {
				wantTo = want[i].d.To
			}
			t.Fatalf("%s: root %d cfg %d skip %d: Select To=%v err=%q next=%d, reference To=%v err=%q next=%d",
				state, c.root, c.ci, c.skip, gotTo, got.err, got.next, wantTo, want[i].err, want[i].next)
		}
	}
}

// effectiveSetOp finds a node and an operation whose SetOp changes the
// reference ordering at some eligible root, so that a memo surviving the
// SetOp would serve a stale tree there. ok is false if the search finds
// none; the caller then rewrites some node anyway.
func effectiveSetOp(g *cdfg.Graph) (u cdfg.NodeID, op cdfg.Op, ok bool) {
	roots := EligibleRoots(g)
	if len(roots) > 24 {
		roots = roots[:24]
	}
	for _, r := range roots {
		want, err := refSelect(g, prng.MustBitstream([]byte("setop")), r, memoCfgs[0])
		if err != nil {
			continue
		}
		for _, u := range want.To[1:min(len(want.To), 24)] {
			for _, op := range []cdfg.Op{cdfg.OpUnit, cdfg.OpAdd} {
				if g.Node(u).Op == op {
					continue
				}
				h := g.Clone()
				h.SetOp(u, op)
				got, err := refSelect(h, prng.MustBitstream([]byte("setop")), r, memoCfgs[0])
				if err == nil && !reflect.DeepEqual(got.Order, want.Order) {
					return u, op, true
				}
			}
		}
	}
	return g.Computational()[0], cdfg.OpUnit, false
}

// mutate applies the structural mutations the differential test makes to
// g, checking Select against the reference after each one: AddNode (and a
// Select at the new, isolated node), a data AddEdge from the new node into
// an eligible root, and a SetOp that changes some root's ordering. Each
// check fills the memo that the next mutation must drop. ref holds g's
// references and is updated. mutate reports whether the SetOp was found
// effective.
func mutate(t *testing.T, who string, g *cdfg.Graph, ref refTable) bool {
	t.Helper()
	roots := EligibleRoots(g)
	nv := g.AddNode("memo.new", cdfg.OpAdd)
	cs := memoCases(g, nv)
	checkCases(t, who+" after AddNode", g, cs, ref.update(g, cs, nil))

	y := roots[len(roots)/2]
	g.MustAddEdge(nv, y, cdfg.DataEdge)
	cs = memoCases(g, nv)
	checkCases(t, who+" after data AddEdge", g, cs, ref.update(g, cs, downstream(g, y)))

	u, op, effective := effectiveSetOp(g)
	g.SetOp(u, op)
	cs = memoCases(g, nv)
	checkCases(t, who+" after SetOp", g, cs, ref.update(g, cs, downstream(g, u)))
	return effective
}

// TestSelectMemoMatchesReference compares the memoized Select with the
// uncached reference at every eligible root of every registered design,
// under two tree bounds and at two bitstream positions, through the life
// of a memo: cold, warm, on a clone sharing it, with temporal edges added
// and cleared, and after structural mutations of the clone and of the
// original. A memo entry that outlived a mutation would show as a
// mismatch.
func TestSelectMemoMatchesReference(t *testing.T) {
	effective := 0
	results := make(chan bool, len(registeredDesigns()))
	t.Run("designs", func(t *testing.T) {
		for name, g := range registeredDesigns() {
			name, g := name, g
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cs := memoCases(g)
				ref := refTable{}
				want := ref.update(g, cs, nil)
				checkCases(t, "cold", g, cs, want)
				checkCases(t, "warm", g, cs, want)

				c := g.Clone()
				checkCases(t, "clone", c, cs, want)
				comp := c.Computational()
				for i := 0; i+1 < len(comp); i += 3 {
					c.MustAddEdge(comp[i+1], comp[i], cdfg.TemporalEdge)
				}
				checkCases(t, "clone with temporal edges", c, cs, want)
				c.ClearTemporalEdges()
				checkCases(t, "clone after ClearTemporalEdges", c, cs, want)

				eff := mutate(t, "clone", c, maps.Clone(ref))
				checkCases(t, "original after the clone's mutations", g, cs, want)
				eff = mutate(t, "original", g, ref) || eff
				results <- eff
			})
		}
	})
	close(results)
	for eff := range results {
		if eff {
			effective++
		}
	}
	if effective == 0 {
		t.Fatal("no design had a SetOp that changes an ordering; the SetOp check proves nothing")
	}
}

// TestMemoBound selects under records a client could send — a huge τ and
// tree cap, and more distinct tree bounds than the budget holds — and
// checks that the memo never exceeds its budget, that its accounting
// matches what it holds, and that Select stays correct past the budget.
// It also checks the budget is large enough for its purpose: a full
// table of default-τ trees on PGP, the largest Table I design, is
// memoized whole.
func TestMemoBound(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[4].Cfg) // PGP
	roots := EligibleRoots(g)
	for _, v := range roots {
		if _, err := Select(g, prng.MustBitstream([]byte("bound")), v, Config{Tau: 20}); err != nil {
			t.Fatal(err)
		}
	}
	m := memoOf(g)
	checkAccounting(t, m)
	if held := heldTrees(m); held != len(roots) {
		t.Fatalf("default-τ table holds %d of %d roots within budget %d (used %d)",
			held, len(roots), m.budget, m.used.Load())
	}

	g = designs.DAConverter()
	roots = EligibleRoots(g)
	cfgs := []Config{{Tau: 1 << 28}, {Tau: 20, MaxDist: 1 << 30, MaxTreeSize: 1 << 30}}
	for d := 1; d <= 2*memoBudgetPerNode; d++ {
		cfgs = append(cfgs, Config{Tau: 2, MaxDist: d, MaxTreeSize: 2 + d%7})
	}
	m = memoOf(g)
	for i, cfg := range cfgs {
		for j := 0; j < len(roots); j += 1 + len(roots)/8 {
			v := roots[(i+j)%len(roots)]
			seed := []byte(fmt.Sprintf("bound/%d/%d", i, j))
			got, err := Select(g, prng.MustBitstream(seed), v, cfg)
			if err != nil {
				t.Fatalf("cfg %+v root %d: %v", cfg, v, err)
			}
			want, err := refSelect(g, prng.MustBitstream(seed), v, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v root %d: Select T=%v, reference T=%v", cfg, v, got.T, want.T)
			}
			if u := m.used.Load(); u > m.budget {
				t.Fatalf("cfg %d: memo holds %d units, budget %d", i, u, m.budget)
			}
		}
	}
	checkAccounting(t, m)
	if tables := len(*m.tables.Load()); tables >= len(cfgs) {
		t.Fatalf("memo kept a table for each of %d tree bounds; the budget should have stopped it", tables)
	}
}

// checkAccounting fails t unless m's used units are exactly its tables'
// slot counts plus its memoized trees' node counts, within the budget.
func checkAccounting(t *testing.T, m *memo) {
	t.Helper()
	var units int64
	for _, tb := range *m.tables.Load() {
		units += int64(len(tb.slots))
		for i := range tb.slots {
			if ord := tb.slots[i].Load(); ord != nil {
				units += int64(len(ord.Ordered))
			}
		}
	}
	if used := m.used.Load(); used != units || used > m.budget {
		t.Fatalf("memo accounts %d units, holds %d, budget %d", used, units, m.budget)
	}
}

// heldTrees counts the memoized trees across m's tables.
func heldTrees(m *memo) int {
	n := 0
	for _, tb := range *m.tables.Load() {
		for i := range tb.slots {
			if tb.slots[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TestFingerprintMatcherMatchesText checks the prefiltering matcher
// against the text comparison it replaces, at every eligible root of
// every registered design, for every fingerprint occurring in the design
// and for malformed and non-canonical ones.
func TestFingerprintMatcherMatchesText(t *testing.T) {
	malformed := []string{"", "03/2/[3 5]", "+4/2/[4 4]", "4/02/[4 4]", "3/2", "x", "4/2/", "4/2/[",
		"99999999999999999999/2/[4 4]", "4/99999999999999999999/[4 4]", "-4/2/[4 4]"}
	for name, g := range registeredDesigns() {
		fps := map[string]bool{}
		for v := 0; v < g.Len(); v++ {
			fps[RootFingerprint(g, cdfg.NodeID(v))] = true
		}
		for _, fp := range malformed {
			fps[fp] = true
		}
		roots := EligibleRoots(g)
		for fp := range fps {
			m := NewFingerprintMatcher(fp)
			for _, v := range roots {
				if got, want := m.Match(g, v), RootFingerprint(g, v) == fp; got != want {
					t.Fatalf("%s root %s fingerprint %q: Match %t, text comparison %t",
						name, g.Node(v).Name, fp, got, want)
				}
			}
		}
	}
}

// fuzzOps are the operations FuzzSelectMemo gives nodes: computational
// ones, and the sources that make a root ineligible.
var fuzzOps = []cdfg.Op{cdfg.OpAdd, cdfg.OpMul, cdfg.OpSub, cdfg.OpUnit, cdfg.OpInput, cdfg.OpConst}

// FuzzSelectMemo runs a random graph through a random interleaving of
// selections at random roots and tree bounds, clones, temporal, control
// and data edges (cycles included), node additions and operation
// rewrites; every selection must equal the uncached reference on the
// graph as it stands.
func FuzzSelectMemo(f *testing.F) {
	for i := 0; i < 8; i++ {
		bs := prng.MustBitstream([]byte(fmt.Sprintf("fuzz-select-memo/%d", i)))
		seed := make([]byte, 160)
		for j := range seed {
			seed[j] = byte(bs.Intn(256))
		}
		f.Add(seed)
	}
	cfgs := []Config{{Tau: 3}, {Tau: 5, MaxDist: 2}, {Tau: 4, MaxTreeSize: 6}, {Tau: 2, MaxDist: 1, MaxTreeSize: 3}}
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1]) % n
		}
		n := 2 + next(14)
		g := cdfg.New(n)
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("n%d", i), fuzzOps[next(len(fuzzOps))])
		}
		for i := next(3 * n); i > 0; i-- {
			if a, b := next(n), next(n); a < b {
				g.MustAddEdge(cdfg.NodeID(a), cdfg.NodeID(b), cdfg.DataEdge)
			}
		}
		graphs := []*cdfg.Graph{g}
		for pos < len(data) {
			h := graphs[next(len(graphs))]
			a, b := cdfg.NodeID(next(h.Len())), cdfg.NodeID(next(h.Len()))
			switch next(8) {
			case 0, 1, 2:
				cfg := cfgs[next(len(cfgs))]
				seed := []byte{byte(a), byte(pos)}
				skip := next(9)
				bsGot, bsWant := prng.MustBitstream(seed), prng.MustBitstream(seed)
				for i := 0; i < skip; i++ {
					bsGot.Bit()
					bsWant.Bit()
				}
				got, errGot := Select(h, bsGot, a, cfg)
				want, errWant := refSelect(h, bsWant, a, cfg)
				if fmt.Sprint(errGot) != fmt.Sprint(errWant) || !reflect.DeepEqual(got, want) {
					t.Fatalf("root %d cfg %+v: Select %v (err %v), reference %v (err %v)", a, cfg, got, errGot, want, errWant)
				}
				if bsGot.Intn(1<<20) != bsWant.Intn(1<<20) {
					t.Fatalf("root %d cfg %+v: bitstream diverged after Select", a, cfg)
				}
			case 3:
				if len(graphs) < 4 {
					graphs = append(graphs, h.Clone())
				}
			case 4:
				kind := cdfg.TemporalEdge
				if next(2) == 0 {
					kind = cdfg.ControlEdge
				}
				_ = h.AddEdge(a, b, kind) // duplicates and self-loops are refused, harmlessly
			case 5:
				_ = h.AddEdge(a, b, cdfg.DataEdge) // self-loops are refused, harmlessly
			case 6:
				h.AddNode(fmt.Sprintf("x%d", h.Len()), fuzzOps[next(len(fuzzOps))])
			case 7:
				h.SetOp(a, fuzzOps[next(len(fuzzOps))])
			}
		}
	})
}

package gcolor

import (
	"testing"
	"testing/quick"

	"localwm/internal/prng"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := RandomGraph("test", 60, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err != nil { // idempotent
		t.Fatal(err)
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.Edges() != 1 {
		t.Fatalf("edges = %d", g.Edges())
	}
	if err := g.AddEdge(2, 2); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if g.Degree(0) != 1 || len(g.Neighbors(0)) != 1 {
		t.Fatal("degree/neighbors wrong")
	}
}

func TestDSATURProper(t *testing.T) {
	g := testGraph(t)
	col := DSATUR(g)
	if err := col.Valid(g); err != nil {
		t.Fatal(err)
	}
	if col.Colors() < 2 {
		t.Fatal("suspiciously few colors")
	}
}

func TestDSATUROnCompleteGraph(t *testing.T) {
	g := NewGraph(5)
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	col := DSATUR(g)
	if err := col.Valid(g); err != nil {
		t.Fatal(err)
	}
	if col.Colors() != 5 {
		t.Fatalf("K5 colored with %d colors", col.Colors())
	}
}

func TestDSATUROnBipartite(t *testing.T) {
	// Even cycle: chromatic number 2, which DSATUR finds.
	g := NewGraph(8)
	for v := 0; v < 8; v++ {
		if err := g.AddEdge(v, (v+1)%8); err != nil {
			t.Fatal(err)
		}
	}
	col := DSATUR(g)
	if err := col.Valid(g); err != nil {
		t.Fatal(err)
	}
	if col.Colors() != 2 {
		t.Fatalf("C8 colored with %d colors, want 2", col.Colors())
	}
}

func TestColoringValidCatchesErrors(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := (Coloring{0, 0, 0}).Valid(g); err == nil {
		t.Fatal("monochromatic edge accepted")
	}
	if err := (Coloring{0, 1}).Valid(g); err == nil {
		t.Fatal("short coloring accepted")
	}
	if err := (Coloring{0, -1, 0}).Valid(g); err == nil {
		t.Fatal("uncolored vertex accepted")
	}
}

func TestEmbedAddsConstraintEdges(t *testing.T) {
	g := testGraph(t)
	before := g.Edges()
	wm, err := Embed(g, prng.Signature("alice"), Config{Tau: 10, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Pairs) != 4 {
		t.Fatalf("pairs = %d, want 4", len(wm.Pairs))
	}
	if g.Edges() != before+4 {
		t.Fatalf("edges grew by %d, want 4", g.Edges()-before)
	}
	for _, p := range wm.Pairs {
		if !g.HasEdge(p[0], p[1]) {
			t.Fatal("constraint edge missing")
		}
	}
	// The coloring of the augmented instance separates every pair.
	col := DSATUR(g)
	if err := col.Valid(g); err != nil {
		t.Fatal(err)
	}
	for _, p := range wm.Pairs {
		if col[p[0]] == col[p[1]] {
			t.Fatal("constrained pair shares a color")
		}
	}
}

func TestEmbedDeterministicAndKeyed(t *testing.T) {
	mk := func(sig string) [][2]int {
		g := testGraph(t)
		wm, err := Embed(g, prng.Signature(sig), Config{Tau: 10, K: 4})
		if err != nil {
			t.Fatal(err)
		}
		return wm.Pairs
	}
	a, b := mk("alice"), mk("alice")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same signature differs")
		}
	}
	c := mk("bob")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different signatures embedded identically")
	}
}

func TestDetectRoundTrip(t *testing.T) {
	g := testGraph(t)
	wm, err := Embed(g, prng.Signature("alice"), Config{Tau: 10, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	col := DSATUR(g) // coloring of the augmented instance
	// Ship: the published solution is the coloring of the ORIGINAL
	// instance — constraint edges removed, coloring kept.
	shipped := testGraph(t)
	det, err := Detect(shipped, col, wm.Record())
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatalf("watermark not found (best %d/%d)", det.Separated, det.Total)
	}
	if det.Pc.Exponent10() >= 0 {
		t.Fatalf("no proof strength: %v", det.Pc)
	}
}

func TestDetectUnmarkedColoring(t *testing.T) {
	g := testGraph(t)
	wm, err := Embed(g.Clone(), prng.Signature("alice"), Config{Tau: 10, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	col := DSATUR(g) // never saw the constraints
	det, err := Detect(g, col, wm.Record())
	if err != nil {
		t.Fatal(err)
	}
	// Separation by chance is possible per pair (~(1-1/k)^K overall);
	// with K=8 a full match is unlikely but legal — what matters is that
	// any such match carries weak evidence relative to a real one.
	if det.Found {
		t.Logf("coincidental separation with Pc=%v", det.Pc)
	}
}

func TestEmbedValidation(t *testing.T) {
	g := testGraph(t)
	for _, cfg := range []Config{{Tau: 1, K: 2}, {Tau: 5, K: 0}} {
		if _, err := Embed(g, prng.Signature("x"), cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := Embed(g, nil, Config{Tau: 5, K: 2}); err == nil {
		t.Fatal("empty signature accepted")
	}
}

func TestEmbedImpossibleLocality(t *testing.T) {
	// Complete graph: no non-adjacent pairs anywhere.
	g := NewGraph(8)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Embed(g, prng.Signature("x"), Config{Tau: 5, K: 2}); err == nil {
		t.Fatal("complete graph accepted")
	}
}

func TestDetectValidation(t *testing.T) {
	g := testGraph(t)
	wm, err := Embed(g.Clone(), prng.Signature("v"), Config{Tau: 8, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched coloring length.
	if _, err := Detect(g, Coloring{0, 1}, wm.Record()); err == nil {
		t.Fatal("short coloring accepted")
	}
	// Empty record.
	if _, err := Detect(g, DSATUR(g), Record{Signature: prng.Signature("v")}); err == nil {
		t.Fatal("empty record accepted")
	}
	// Improper coloring.
	bad := make(Coloring, g.N())
	if _, err := Detect(g, bad, wm.Record()); err == nil {
		t.Fatal("improper coloring accepted")
	}
	if _, err := RandomGraph("x", 1, 1, 2); err == nil {
		t.Fatal("single-vertex graph accepted")
	}
}

// TestDetectRejectsOutOfRangeRanks: a record is client input, so a rank
// outside [0, len(locality)) on either side of a pair makes the pair
// unmappable at every root — never an index panic — and the record is
// not found.
func TestDetectRejectsOutOfRangeRanks(t *testing.T) {
	g := testGraph(t)
	marked := g.Clone()
	wm, err := Embed(marked, prng.Signature("ranks"), Config{Tau: 10, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	col := DSATUR(marked)
	if det, err := Detect(g, col, wm.Record()); err != nil || !det.Found {
		t.Fatalf("intact record: det %+v, err %v", det, err)
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {-5, -7}, {0, 10}, {1 << 40, 0}} {
		rec := wm.Record()
		rec.RankPairs[len(rec.RankPairs)-1] = bad
		det, err := Detect(g, col, rec)
		if err != nil {
			t.Fatalf("ranks %v: %v", bad, err)
		}
		if det.Found || det.Separated != 0 || det.Total != len(rec.RankPairs) {
			t.Fatalf("ranks %v: det %+v, want not found with no separated pair", bad, det)
		}
	}
}

func TestRandomGraphDeterministicConnected(t *testing.T) {
	a, err := RandomGraph("s", 40, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomGraph("s", 40, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Edges() != b.Edges() {
		t.Fatal("not deterministic")
	}
	// Backbone guarantees connectivity: BFS reaches everyone.
	seen := map[int]bool{0: true}
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range a.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	if len(seen) != a.N() {
		t.Fatalf("graph disconnected: reached %d of %d", len(seen), a.N())
	}
}

// Property: DSATUR always yields a proper coloring with at most Δ+1
// colors (greedy bound).
func TestDSATURBoundProperty(t *testing.T) {
	f := func(seed uint32, nRaw, dRaw uint8) bool {
		n := int(nRaw%30) + 5
		den := int(dRaw%8) + 3
		g, err := RandomGraph(string(rune('a'+seed%26)), n, 1, den)
		if err != nil {
			return false
		}
		col := DSATUR(g)
		if col.Valid(g) != nil {
			return false
		}
		maxDeg := 0
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
		}
		return col.Colors() <= maxDeg+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRecolorAttack permutes the color classes of a marked solution — a
// free transformation for the attacker — and checks the watermark is
// untouched: the evidence is color INEQUALITY of the constrained pairs,
// which any class permutation preserves.
func TestRecolorAttack(t *testing.T) {
	g := testGraph(t)
	wm, err := Embed(g, prng.Signature("alice"), Config{Tau: 10, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	col := DSATUR(g)
	// Attacker permutes class labels.
	k := col.Colors()
	perm := make([]int, k)
	for i := range perm {
		perm[i] = (i + 3) % k
	}
	recolored := make(Coloring, len(col))
	for v, c := range col {
		recolored[v] = perm[c]
	}
	shipped := testGraph(t)
	if err := recolored.Valid(shipped); err != nil {
		// The recoloring is proper on the augmented graph by
		// construction; on the original it is proper a fortiori.
		t.Fatal(err)
	}
	det, err := Detect(shipped, recolored, wm.Record())
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatalf("class permutation erased the watermark (%d/%d)", det.Separated, det.Total)
	}
}

func TestCanonicalOrderStable(t *testing.T) {
	g := testGraph(t)
	in := map[int]bool{}
	for v := 0; v < 12; v++ {
		in[v] = true
	}
	a := canonicalOrder(g, in)
	b := canonicalOrder(g, in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("canonical order unstable")
		}
	}
	if len(a) != 12 {
		t.Fatalf("order covers %d of 12", len(a))
	}
}

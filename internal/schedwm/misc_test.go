package schedwm

import (
	"slices"
	"strings"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/stats"
)

func TestConvincingDiscount(t *testing.T) {
	mk := func(pc stats.LogProb, roots int, found bool) *Detection {
		return &Detection{Found: found, RootsTried: roots,
			Best: Candidate{Pc: pc}}
	}
	if mk(-6, 100, true).Convincing(0.01) != true {
		t.Fatal("strong evidence rejected")
	}
	if mk(-2, 1000, true).Convincing(0.01) != false {
		t.Fatal("discounted-away evidence accepted")
	}
	if mk(-9, 100, false).Convincing(0.01) {
		t.Fatal("not-found accepted")
	}
	if mk(-9, 100, true).Convincing(0) {
		t.Fatal("alpha 0 accepted")
	}
	if !mk(-9, 0, true).Convincing(0.01) {
		t.Fatal("zero roots should count as one")
	}
}

func TestApproxPcDefaultBudgetAndErrors(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	cp := mustCP(t, g)
	wm := embedOn(t, g, "approx", Config{Tau: 20, K: 3, Epsilon: 0.25, Budget: cp + 6})
	// Zero budget: defaults to the (temporal-free) critical path.
	pc, err := ApproxPc(g, wm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Exponent10() >= 0 {
		t.Fatalf("Pc = %v", pc)
	}
	// Infeasible explicit budget errors.
	if _, err := ApproxPc(g, wm, 1); err == nil {
		t.Fatal("budget 1 accepted")
	}
}

func TestExactPcErrorsOnHugeDesign(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg) // 528 ops: enumeration hopeless
	cp := mustCP(t, g)
	if _, _, err := ExactPc(g, cp+2); err == nil {
		t.Fatal("oversized enumeration accepted")
	}
}

func TestEmbedManyCountValidation(t *testing.T) {
	g := designs.WaveletFilter()
	if _, err := EmbedMany(g, prng.Signature("x"), testCfg, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestDetectIgnoresSuspectTemporalEdges(t *testing.T) {
	// A thief may ship a design that still contains bogus temporal edges;
	// detection must judge the schedule order alone.
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	cp := mustCP(t, g)
	wm := embedOn(t, g, "ignore-temp", Config{Tau: 20, K: 3, Epsilon: 0.25, Budget: cp + 6})
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ship WITH the temporal edges still present.
	det, err := Detect(g, s, wm.Record())
	if err != nil {
		t.Fatal(err)
	}
	if !det.Found {
		t.Fatal("presence of temporal edges broke detection")
	}
}

// TestDetectRejectsOutOfRangeRanks: a record is client input, so a rank
// outside [0, |T|) makes the constraint unmappable at every root — the
// scan reports not found instead of indexing out of range.
func TestDetectRejectsOutOfRangeRanks(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	cp := mustCP(t, g)
	wm := embedOn(t, g, "bad-rank", Config{Tau: 20, K: 3, Epsilon: 0.25, Budget: cp + 6})
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	if det, err := Detect(g, s, wm.Record()); err != nil || !det.Found {
		t.Fatalf("valid record: found=%v err=%v", det != nil && det.Found, err)
	}
	for _, bad := range []struct{ edge, end, rank int }{
		{0, 0, -1}, {0, 1, -1}, {len(wm.RankEdges) - 1, 1, -1}, {0, 0, 1 << 30},
	} {
		rec := wm.Record()
		rec.RankEdges[bad.edge][bad.end] = bad.rank
		det, err := Detect(g, s, rec)
		if err != nil {
			t.Fatalf("rank %d at edge %d end %d: %v", bad.rank, bad.edge, bad.end, err)
		}
		if det.Found {
			t.Errorf("rank %d at edge %d end %d: found", bad.rank, bad.edge, bad.end)
		}
	}
}

// TestSortByRankMatchesReference sorts the selected subtree T of every
// eligible root of a Table I design, as encode sorts T', against the
// rank-map insertion sort it replaced. T lists a node twice where a
// consumer reads one value on two input slots, and the duplicates must
// survive.
func TestSortByRankMatchesReference(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[1].Cfg) // G721
	dups := 0
	for _, v := range domain.EligibleRoots(g) {
		d, err := domain.Select(g, prng.MustBitstream([]byte("sort")), v, domain.Config{Tau: 32})
		if err != nil {
			t.Fatal(err)
		}
		rank := map[cdfg.NodeID]int{}
		for i, u := range d.To {
			rank[u] = i
		}
		distinct := map[cdfg.NodeID]bool{}
		for _, u := range d.T {
			distinct[u] = true
		}
		if len(distinct) < len(d.T) {
			dups++
		}
		if got, want := sortByRank(d.T, d.To), refSortByRank(d.T, rank); !slices.Equal(got, want) {
			t.Fatalf("root %s: sortByRank %v, reference %v", g.Node(v).Name, got, want)
		}
	}
	if dups == 0 {
		t.Fatal("no domain listed a node twice; the duplicate case went untested")
	}
}

// TestEmbedRejectsDesignWithoutOperations: a design with no operation to
// schedule has a unit-step critical path of 0, which the stretch bound
// divides by. Embedding (and so verification, which re-embeds) must
// fail with an error instead of panicking.
func TestEmbedRejectsDesignWithoutOperations(t *testing.T) {
	for name, text := range map[string]string{
		"comment only":    "# only a comment\n",
		"input to output": "node x in\nnode y out\nedge x y data\n",
	} {
		g, err := cdfg.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		cfg := testCfg
		cfg.Budget = 1
		if _, err := EmbedMany(g, prng.Signature("alice"), cfg, 2); err == nil ||
			!strings.Contains(err.Error(), "no operations") {
			t.Errorf("%s: EmbedMany err %v, want a no-operations error", name, err)
		}
		s := &sched.Schedule{Steps: make([]int, g.Len()), Budget: 1}
		if _, err := VerifyOwnership(g, s, prng.Signature("alice"), cfg, 2); err == nil {
			t.Errorf("%s: VerifyOwnership succeeded on a design without operations", name)
		}
	}
}

package schedwm

import (
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
)

// markDesigns returns the Table II designs the scheduling family embeds
// at its defaults (it rejects the Linear GE controller and the wavelet
// filter), with the family's default budget: critical path + 10% + 1.
func markDesigns(tb testing.TB) ([]*cdfg.Graph, []Config) {
	tb.Helper()
	var gs []*cdfg.Graph
	var cfgs []Config
	rows := designs.Table2()
	for _, i := range []int{0, 3, 4, 5, 6, 7} {
		g := rows[i].Build()
		cp, err := g.CriticalPath()
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
		cfgs = append(cfgs, Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + cp/10 + 1})
	}
	return gs, cfgs
}

// BenchmarkEmbedTable2 times one sequential EmbedMany of two watermarks
// on a fresh copy of each of the six designs, as the daemon's embeds of
// them do at the family defaults.
func BenchmarkEmbedTable2(b *testing.B) {
	gs, cfgs := markDesigns(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			if _, err := EmbedMany(g.Clone(), prng.Signature("bench"), cfgs[j], 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

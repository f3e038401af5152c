package sched

import (
	"strings"
	"testing"

	"localwm/internal/designs"
)

// BenchmarkParseSchedule parses the list schedule of a Table I-size
// suspect (PGP, 1755 operations) against its resident graph, as a detect
// by reference does.
func BenchmarkParseSchedule(b *testing.B) {
	g := designs.Layered(designs.MediaBench()[4].Cfg)
	s, err := ListSchedule(g, ListOpts{})
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSchedule(&sb, g, s); err != nil {
		b.Fatal(err)
	}
	text := sb.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSchedule(g, strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

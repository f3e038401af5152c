package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"localwm/internal/designs"
)

func TestScheduleTextRoundTrip(t *testing.T) {
	g := designs.WaveletFilter()
	s, err := ListSchedule(g, ListOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteSchedule(&sb, g, s); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSchedule(g, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Budget != s.Budget {
		t.Fatalf("budget %d, want %d", back.Budget, s.Budget)
	}
	for v, st := range s.Steps {
		if back.Steps[v] != st {
			t.Fatalf("node %d: step %d, want %d", v, back.Steps[v], st)
		}
	}

	// Writing the re-parsed schedule must reproduce the bytes: the format
	// is canonical for a given schedule.
	var sb2 strings.Builder
	if err := WriteSchedule(&sb2, g, back); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Fatal("text round trip not canonical")
	}
}

func TestParseScheduleDefaultsAndComments(t *testing.T) {
	g := designs.WaveletFilter()
	in := "# comment\n\nstep lo_m0 4\nstep lo_a1 7\n"
	s, err := ParseSchedule(g, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Budget != 7 {
		t.Fatalf("defaulted budget = %d, want makespan 7", s.Budget)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	g := designs.WaveletFilter()
	for name, in := range map[string]string{
		"unknown-node": "step nosuch 3\n",
		"garbage":      "frobnicate\n",
	} {
		if _, err := ParseSchedule(g, strings.NewReader(in)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

// TestParseScheduleRejectsMalformed lists, one case per class, the
// malformed lines the former fmt.Sscanf parser read a prefix of; each is
// now rejected as unparseable.
func TestParseScheduleRejectsMalformed(t *testing.T) {
	g := designs.WaveletFilter()
	for name, line := range map[string]string{
		"fractional-step":   "step lo_m0 3.5",
		"step-suffix":       "step lo_m0 3x",
		"hex-budget":        "budget 0x10",
		"underscore-budget": "budget 1_000",
		"trailing-budget":   "budget 5 6",
		"trailing-step":     "step lo_m0 3 extra",
		"negative-step":     "step lo_m0 -3",
		"negative-budget":   "budget -5",
		"plus-sign":         "step lo_m0 +3",
	} {
		t.Run(name, func(t *testing.T) {
			_, err := ParseSchedule(g, strings.NewReader("budget 9\n"+line+"\n"))
			want := fmt.Sprintf("sched: schedule line 2: unparseable %q", line)
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %s", err, want)
			}
		})
	}
}

// TestScheduleCodecMatchesReference checks the writer and the parser
// against the fmt-based reference on the list schedules of every Table II
// design, and the parser on hand-written well-formed lines.
func TestScheduleCodecMatchesReference(t *testing.T) {
	for _, row := range designs.Table2() {
		g := row.Build()
		s, err := ListSchedule(g, ListOpts{})
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := WriteSchedule(&got, g, s); err != nil {
			t.Fatal(err)
		}
		if err := writeScheduleReference(&want, g, s); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: WriteSchedule differs from the reference", row.Name)
		}
		for _, text := range []string{got.String(), "# c\n\n  step\t" + g.Node(g.Computational()[0]).Name + "   007 \nbudget 0\n"} {
			p, err := ParseSchedule(g, strings.NewReader(text))
			ref, refErr := parseScheduleReference(g, strings.NewReader(text))
			if err != nil || refErr != nil || !reflect.DeepEqual(p, ref) {
				t.Fatalf("%s: ParseSchedule = %+v, %v; reference %+v, %v", row.Name, p, err, ref, refErr)
			}
		}
	}
}

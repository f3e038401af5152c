package sched

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"localwm/internal/designs"
)

// wellFormed reports whether text is UTF-8 and every line is blank, a
// comment, or exactly "budget <digits>" or "step <name> <digits>": the
// input on which ParseSchedule must agree with the fmt-based reference.
// (That parser read names rune by rune, replacing invalid bytes.)
func wellFormed(text string) bool {
	if !utf8.ValidString(text) {
		return false
	}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var num string
		switch {
		case len(f) == 2 && f[0] == "budget":
			num = f[1]
		case len(f) == 3 && f[0] == "step":
			num = f[2]
		default:
			return false
		}
		if _, ok := parseCount([]byte(num)); !ok {
			return false
		}
	}
	return true
}

// FuzzParseSchedule drives the schedule parser with arbitrary text against
// the modem filter. Parsing never panics; WriteSchedule∘ParseSchedule is
// the identity on canonical text; and on well-formed input the parser
// agrees with the fmt-based reference in result and error text.
func FuzzParseSchedule(f *testing.F) {
	g := designs.ModemFilter()
	s, err := ListSchedule(g, ListOpts{})
	if err != nil {
		f.Fatal(err)
	}
	var canon bytes.Buffer
	if err := WriteSchedule(&canon, g, s); err != nil {
		f.Fatal(err)
	}
	f.Add(canon.String())
	f.Add("# comment\n\nstep m0 4\n")
	f.Add("budget 7\nstep m0 3.5\n")
	f.Add("budget 0x10\n")
	f.Add("budget 5 6\nstep m0 -3\nstep m0 +3\n")
	f.Add("step\tm0\t3\n  budget  9  \n")
	f.Add("step nosuch 3\n")
	f.Fuzz(func(t *testing.T, text string) {
		got, err := ParseSchedule(g, strings.NewReader(text))
		if wellFormed(text) {
			want, wantErr := parseScheduleReference(g, strings.NewReader(text))
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) ||
				(err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("ParseSchedule = %+v, %v; reference %+v, %v", got, err, want, wantErr)
			}
		}
		if err != nil {
			return
		}
		var out, ref bytes.Buffer
		if err := WriteSchedule(&out, g, got); err != nil {
			t.Fatal(err)
		}
		if err := writeScheduleReference(&ref, g, got); err != nil || !bytes.Equal(out.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteSchedule differs from the reference (%v):\n%s\nreference:\n%s", err, out.String(), ref.String())
		}
		back, err := ParseSchedule(g, bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written schedule: %v\n%s", err, out.String())
		}
		var again bytes.Buffer
		if err := WriteSchedule(&again, g, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatalf("WriteSchedule∘ParseSchedule not the identity on canonical text:\n%s\nthen:\n%s", out.String(), again.String())
		}
	})
}

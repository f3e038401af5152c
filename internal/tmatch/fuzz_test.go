package tmatch

import (
	"strings"
	"testing"

	"localwm/internal/designs"
)

// FuzzParseCover checks that ParseCover never panics on arbitrary text
// against a fixed design and the standard library, and that
// FormatCover∘ParseCover is the identity on canonical text.
func FuzzParseCover(f *testing.F) {
	g := designs.FourthOrderParallelIIR()
	lib := StandardLibrary()
	if cover, err := GreedyCover(g, lib, Constraints{}, nil); err == nil {
		f.Add(FormatCover(g, lib, cover))
	}
	f.Add("cover v1\n")
	f.Add("# c\ncover v1\n\nm nosuch a b\n")
	f.Add("cover v1\nm\n")
	f.Add("schedule v1\n")
	f.Fuzz(func(t *testing.T, text string) {
		cover, err := ParseCover(g, lib, strings.NewReader(text))
		if err != nil {
			return
		}
		canon := FormatCover(g, lib, cover)
		back, err := ParseCover(g, lib, strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\n%s", err, canon)
		}
		if again := FormatCover(g, lib, back); again != canon {
			t.Fatalf("canonical text not a fixed point:\n%s\nvs\n%s", canon, again)
		}
	})
}

package gcolor

import (
	"strings"
	"testing"
)

// FuzzParseGraph checks that ParseGraph never panics on arbitrary text
// and that FormatGraph∘ParseGraph is the identity on canonical text: a
// parsed graph's canonical form parses back to the same canonical form.
func FuzzParseGraph(f *testing.F) {
	f.Add("gcolor v1\nn 4\ne 0 1\ne 0 2\ne 1 3\n")
	f.Add("# a comment\n\ngcolor v1\nn 4\ne 3 1\ne 1 0\n\ne 2 0\n")
	f.Add("gcolor v1\nn 3\ne 0 18446744073709551617\n")
	f.Add("gcolor v1\nn 1000000\n")
	f.Add("node a in\n")
	if g, err := RandomGraph("fuzz", 24, 20, 100); err == nil {
		f.Add(FormatGraph(g))
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseGraph(strings.NewReader(text))
		if err != nil {
			return
		}
		canon := FormatGraph(g)
		back, err := ParseGraph(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\n%s", err, canon)
		}
		if again := FormatGraph(back); again != canon {
			t.Fatalf("canonical text not a fixed point:\n%s\nvs\n%s", canon, again)
		}
	})
}

// FuzzParseColoring does the same for the coloring codec, over vertex
// counts up to 255.
func FuzzParseColoring(f *testing.F) {
	f.Add(uint8(2), "coloring v1\nc 0 0\nc 1 1\n")
	f.Add(uint8(3), "# c\ncoloring v1\n\nc 2 0\nc 0 1\nc 1 0\n")
	f.Add(uint8(2), "coloring v1\nc 0 0\nc 1 18446744073709551617\n")
	f.Add(uint8(0), "coloring v1\n")
	if g, err := RandomGraph("fuzz", 16, 25, 100); err == nil {
		f.Add(uint8(g.N()), FormatColoring(DSATUR(g)))
	}
	f.Fuzz(func(t *testing.T, n uint8, text string) {
		col, err := ParseColoring(int(n), strings.NewReader(text))
		if err != nil {
			return
		}
		canon := FormatColoring(col)
		back, err := ParseColoring(int(n), strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical text does not parse: %v\n%s", err, canon)
		}
		if again := FormatColoring(back); again != canon {
			t.Fatalf("canonical text not a fixed point:\n%s\nvs\n%s", canon, again)
		}
	})
}

package gcolor

import (
	"fmt"
	"strings"
	"testing"
)

func TestGraphCodecRoundTrip(t *testing.T) {
	g, err := RandomGraph("io-test", 24, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatGraph(g)
	back, err := ParseGraph(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	// Write∘Parse is the identity on canonical text — the property the
	// content-addressed registry hashes rely on.
	if again := FormatGraph(back); again != text {
		t.Fatalf("canonical text not a fixed point:\n%s\nvs\n%s", text, again)
	}
	if back.N() != g.N() {
		t.Fatalf("vertex count %d != %d", back.N(), g.N())
	}
	for u := 0; u < g.N(); u++ {
		if len(back.Neighbors(u)) != len(g.Neighbors(u)) {
			t.Fatalf("vertex %d degree changed", u)
		}
	}
}

func TestGraphCodecNormalizes(t *testing.T) {
	// Comments, blank lines, reversed edge order, and u>v edges all
	// normalize to the same canonical text.
	messy := "# a comment\n\ngcolor v1\nn 4\ne 3 1\ne 1 0\n\ne 2 0\n"
	g, err := ParseGraph(strings.NewReader(messy))
	if err != nil {
		t.Fatal(err)
	}
	want := "gcolor v1\nn 4\ne 0 1\ne 0 2\ne 1 3\n"
	if got := FormatGraph(g); got != want {
		t.Fatalf("canonical text:\n%q\nwant\n%q", got, want)
	}
}

func TestGraphCodecErrors(t *testing.T) {
	for name, text := range map[string]string{
		"no header":     "n 3\ne 0 1\n",
		"cdfg text":     "node a in\nnode b out\nedge a b data\n",
		"no count":      "gcolor v1\ne 0 1\n",
		"dup count":     "gcolor v1\nn 3\nn 4\n",
		"range":         "gcolor v1\nn 3\ne 0 5\n",
		"negative":      "gcolor v1\nn 3\ne -1 2\n",
		"self loop":     "gcolor v1\nn 3\ne 1 1\n",
		"junk int":      "gcolor v1\nn 3\ne 0 1x\n",
		"unknown line":  "gcolor v1\nn 3\nq 0 1\n",
		"empty":         "",
		"zero vertices": "gcolor v1\nn 0\n",
	} {
		if _, err := ParseGraph(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestColoringCodecRoundTrip(t *testing.T) {
	g, err := RandomGraph("col-test", 16, 25, 100)
	if err != nil {
		t.Fatal(err)
	}
	col := DSATUR(g)
	if err := col.Valid(g); err != nil {
		t.Fatalf("DSATUR coloring invalid: %v", err)
	}
	text := FormatColoring(col)
	back, err := ParseColoring(g.N(), strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if again := FormatColoring(back); again != text {
		t.Fatalf("coloring text not a fixed point:\n%s\nvs\n%s", text, again)
	}
	if err := back.Valid(g); err != nil {
		t.Fatalf("round-tripped coloring invalid: %v", err)
	}
}

func TestColoringCodecErrors(t *testing.T) {
	for name, text := range map[string]string{
		"no header":  "c 0 0\nc 1 1\n",
		"range":      "coloring v1\nc 5 0\n",
		"dup vertex": "coloring v1\nc 0 0\nc 0 1\nc 1 1\n",
		"negative":   "coloring v1\nc 0 -1\nc 1 0\n",
		"missing":    "coloring v1\nc 0 0\n",
		"junk":       "coloring v1\nc 0 zero\nc 1 0\n",
		"empty":      "",
	} {
		if _, err := ParseColoring(2, strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseGraphBoundsVertexCount: the vertex count is read before any
// edge and allocates per vertex, so a count above MaxVertices is
// rejected instead of allocated.
func TestParseGraphBoundsVertexCount(t *testing.T) {
	if _, err := ParseGraph(strings.NewReader("gcolor v1\nn 1000000\n")); err == nil {
		t.Fatal("a million-vertex count was accepted")
	}
	g, err := ParseGraph(strings.NewReader(fmt.Sprintf("gcolor v1\nn %d\n", MaxVertices)))
	if err != nil {
		t.Fatalf("MaxVertices rejected: %v", err)
	}
	if g.N() != MaxVertices {
		t.Fatalf("parsed %d vertices, want %d", g.N(), MaxVertices)
	}
}

// TestParseGraphRejectsOverflow: integers past the int range are errors,
// not values wrapped into range (2^64+1 used to parse as 1).
func TestParseGraphRejectsOverflow(t *testing.T) {
	for name, text := range map[string]string{
		"count":  "gcolor v1\nn 18446744073709551617\n",
		"source": "gcolor v1\nn 3\ne 18446744073709551616 1\n",
		"target": "gcolor v1\nn 3\ne 0 18446744073709551617\n",
	} {
		if _, err := ParseGraph(strings.NewReader(text)); err == nil {
			t.Errorf("%s: overflowing integer accepted", name)
		}
	}
}

// TestParseColoringRejectsOverflow: the coloring codec shares the strict
// integer scan, so its vertex and color fields reject overflow too.
func TestParseColoringRejectsOverflow(t *testing.T) {
	for name, text := range map[string]string{
		"vertex": "coloring v1\nc 0 0\nc 18446744073709551617 1\n",
		"color":  "coloring v1\nc 0 0\nc 1 18446744073709551617\n",
	} {
		if _, err := ParseColoring(2, strings.NewReader(text)); err == nil {
			t.Errorf("%s: overflowing integer accepted", name)
		}
	}
}

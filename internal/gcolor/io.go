package gcolor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Text formats
//
// The graph serialization is the line-oriented companion of the cdfg text
// format, shared by the lwm CLI and the lwmd daemon for the
// graph-coloring watermark family:
//
//	# comment
//	gcolor v1
//	n <vertex-count>
//	e <u> <v>
//
// Edge lines are emitted with u < v, sorted ascending, so Write∘Parse is
// the identity on the serialized bytes — the written form is the
// canonical text the design registry hashes. The leading "gcolor v1"
// line keeps a cdfg design sent under the wrong family from parsing as a
// vertex soup.
//
// A coloring is serialized as:
//
//	coloring v1
//	c <vertex> <color>
//
// one line per vertex, ascending.

// WriteGraph serializes g in the canonical text format.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "gcolor v1\nn %d\n", g.N())
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(bw, "e %d %d\n", e[0], e[1])
	}
	return bw.Flush()
}

// FormatGraph renders g as its canonical text.
func FormatGraph(g *Graph) string {
	var sb strings.Builder
	if err := WriteGraph(&sb, g); err != nil {
		return fmt.Sprintf("gcolor: %v", err)
	}
	return sb.String()
}

// MaxVertices bounds the vertex count ParseGraph accepts. The count
// arrives before any edge and costs an adjacency set per vertex up
// front, so without a bound a 20-byte body ("n 1000000000") makes the
// parser allocate tens of gigabytes. 1<<16 is 80 times the largest
// graph (800 vertices) the benchmark's color traffic sends.
const MaxVertices = 1 << 16

// ParseGraph reads a graph in the text format.
func ParseGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var g *Graph
	header := false
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if !header {
			if len(fields) != 2 || fields[0] != "gcolor" || fields[1] != "v1" {
				return nil, fmt.Errorf("gcolor: line %d: want 'gcolor v1' header, got %q", lineno, line)
			}
			header = true
			continue
		}
		switch fields[0] {
		case "n":
			if g != nil {
				return nil, fmt.Errorf("gcolor: line %d: duplicate vertex-count line", lineno)
			}
			var n int
			if len(fields) != 2 || !scanInt(fields[1], &n) || n < 1 {
				return nil, fmt.Errorf("gcolor: line %d: want 'n <count>', got %q", lineno, line)
			}
			if n > MaxVertices {
				return nil, fmt.Errorf("gcolor: line %d: %d vertices, more than %d", lineno, n, MaxVertices)
			}
			g = NewGraph(n)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("gcolor: line %d: edge before vertex-count line", lineno)
			}
			var u, v int
			if len(fields) != 3 || !scanInt(fields[1], &u) || !scanInt(fields[2], &v) {
				return nil, fmt.Errorf("gcolor: line %d: want 'e <u> <v>', got %q", lineno, line)
			}
			if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
				return nil, fmt.Errorf("gcolor: line %d: vertex out of range [0,%d)", lineno, g.N())
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, fmt.Errorf("gcolor: line %d: %v", lineno, err)
			}
		default:
			return nil, fmt.Errorf("gcolor: line %d: unparseable %q", lineno, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("gcolor: missing vertex-count line")
	}
	return g, nil
}

// WriteColoring serializes col in the text format.
func WriteColoring(w io.Writer, col Coloring) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "coloring v1\n")
	for v, c := range col {
		fmt.Fprintf(bw, "c %d %d\n", v, c)
	}
	return bw.Flush()
}

// FormatColoring renders col as its canonical text.
func FormatColoring(col Coloring) string {
	var sb strings.Builder
	if err := WriteColoring(&sb, col); err != nil {
		return fmt.Sprintf("gcolor: %v", err)
	}
	return sb.String()
}

// ParseColoring reads a coloring of an n-vertex graph in the text format.
// Every vertex must be assigned exactly once; properness against a
// particular graph is checked by Coloring.Valid, not here.
func ParseColoring(n int, r io.Reader) (Coloring, error) {
	col := make(Coloring, n)
	seen := make([]bool, n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	header := false
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if !header {
			if len(fields) != 2 || fields[0] != "coloring" || fields[1] != "v1" {
				return nil, fmt.Errorf("gcolor: line %d: want 'coloring v1' header, got %q", lineno, line)
			}
			header = true
			continue
		}
		var v, c int
		if len(fields) != 3 || fields[0] != "c" || !scanInt(fields[1], &v) || !scanInt(fields[2], &c) {
			return nil, fmt.Errorf("gcolor: line %d: want 'c <vertex> <color>', got %q", lineno, line)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("gcolor: line %d: vertex %d out of range [0,%d)", lineno, v, n)
		}
		if seen[v] {
			return nil, fmt.Errorf("gcolor: line %d: vertex %d colored twice", lineno, v)
		}
		if c < 0 {
			return nil, fmt.Errorf("gcolor: line %d: negative color %d", lineno, c)
		}
		seen[v] = true
		col[v] = c
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("gcolor: missing 'coloring v1' header")
	}
	for v, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("gcolor: vertex %d has no color", v)
		}
	}
	return col, nil
}

// scanInt parses a strict base-10 integer field (no signs beyond '-', no
// trailing junk — fmt.Sscanf would accept "3x" as 3), rejecting values
// an int cannot hold rather than wrapping them.
func scanInt(s string, out *int) bool {
	if s == "" {
		return false
	}
	neg := false
	i := 0
	if s[0] == '-' {
		neg = true
		i = 1
		if len(s) == 1 {
			return false
		}
	}
	n := 0
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
		d := int(s[i] - '0')
		if n > (math.MaxInt-d)/10 {
			return false
		}
		n = n*10 + d
	}
	if neg {
		n = -n
	}
	*out = n
	return true
}

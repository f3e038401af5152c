package tmatch

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"localwm/internal/cdfg"
)

// Cover text format
//
// The serialization is the line-oriented companion of the cdfg text
// format for template coverings, shared by the lwm CLI and the lwmd
// daemon — it plays the role a schedule plays for the scheduling family:
//
//	# comment
//	cover v1
//	m <template-name> <node-name> [<node-name>...]
//
// Matching lines appear in cover order (GreedyCover and ExactCover are
// deterministic, so the written form is too); node names are listed in
// the matching's preorder slot order. Write∘Parse is the identity.

// WriteCover serializes c against g and lib in the text format.
func WriteCover(w io.Writer, g *cdfg.Graph, lib *Library, c *Cover) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("cover v1\n")
	for _, m := range c.Matchings {
		if m.Template < 0 || m.Template >= len(lib.Templates) {
			return fmt.Errorf("tmatch: matching references template %d outside the library", m.Template)
		}
		bw.WriteString("m ")
		bw.WriteString(lib.Templates[m.Template].Name)
		for _, v := range m.Nodes {
			bw.WriteByte(' ')
			bw.WriteString(g.Node(v).Name)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// FormatCover renders c as its canonical text.
func FormatCover(g *cdfg.Graph, lib *Library, c *Cover) string {
	var sb strings.Builder
	if err := WriteCover(&sb, g, lib, c); err != nil {
		return fmt.Sprintf("tmatch: %v", err)
	}
	return sb.String()
}

// ParseCover reads a covering in the text format, resolving template
// names against lib and node names against g. Disjointness is enforced
// (a node owned by two matchings is a parse error); completeness is not —
// detection against a partial cover simply finds fewer matchings.
func ParseCover(g *cdfg.Graph, lib *Library, r io.Reader) (*Cover, error) {
	byName := map[string]int{}
	for i, t := range lib.Templates {
		if _, dup := byName[t.Name]; dup {
			return nil, fmt.Errorf("tmatch: library has duplicate template name %q", t.Name)
		}
		byName[t.Name] = i
	}
	cov := &Cover{Owner: map[cdfg.NodeID]int{}}
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
			if len(fields) != 2 || fields[0] != "cover" || fields[1] != "v1" {
				return nil, fmt.Errorf("tmatch: line %d: want 'cover v1' header, got %q", lineno, line)
			}
			header = true
			continue
		}
		if fields[0] != "m" || len(fields) < 3 {
			return nil, fmt.Errorf("tmatch: line %d: want 'm <template> <node>...', got %q", lineno, line)
		}
		ti, ok := byName[fields[1]]
		if !ok {
			return nil, fmt.Errorf("tmatch: line %d: unknown template %q", lineno, fields[1])
		}
		m := Matching{Template: ti}
		for _, name := range fields[2:] {
			node, ok := g.NodeByName(name)
			if !ok {
				return nil, fmt.Errorf("tmatch: line %d: unknown node %q", lineno, name)
			}
			if owner, dup := cov.Owner[node.ID]; dup {
				return nil, fmt.Errorf("tmatch: line %d: node %q already covered by matching %d",
					lineno, name, owner)
			}
			m.Nodes = append(m.Nodes, node.ID)
		}
		idx := len(cov.Matchings)
		cov.Matchings = append(cov.Matchings, m)
		for _, v := range m.Nodes {
			cov.Owner[v] = idx
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("tmatch: missing 'cover v1' header")
	}
	return cov, nil
}

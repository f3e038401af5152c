package cdfg

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Text format
//
// The serialization is a line-oriented format designed for hand-editing
// benchmark designs and for the lwm command-line tool:
//
//	# comment
//	node <name> <op>
//	edge <from-name> <to-name> [data|ctrl|temp]
//
// Node lines must precede the edge lines that reference them. Data-edge
// order in the file defines input-slot order.

// Write serializes g to w in the text format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, n := range g.nodes {
		writeLine(bw, "node ", n.Name, n.Op.String(), "")
	}
	// Data and control edges in destination-slot order, temporal edges in
	// insertion order, so Write∘Parse is the identity on structure.
	for v, n := range g.nodes {
		for _, u := range g.dataIn[v] {
			writeLine(bw, "edge ", g.nodes[u].Name, n.Name, " data")
		}
	}
	for v, n := range g.nodes {
		for _, u := range g.ctrlIn[v] {
			writeLine(bw, "edge ", g.nodes[u].Name, n.Name, " ctrl")
		}
	}
	for _, e := range g.temporal {
		writeLine(bw, "edge ", g.nodes[e.From].Name, g.nodes[e.To].Name, " temp")
	}
	return bw.Flush()
}

// writeLine writes "<head><a> <b><tail>\n". Errors stick in bw and
// surface at Flush.
func writeLine(bw *bufio.Writer, head, a, b, tail string) {
	bw.WriteString(head)
	bw.WriteString(a)
	bw.WriteByte(' ')
	bw.WriteString(b)
	bw.WriteString(tail)
	bw.WriteByte('\n')
}

// String renders the graph in the text format (for debugging and golden
// tests).
func (g *Graph) String() string {
	var sb strings.Builder
	if err := Write(&sb, g); err != nil {
		return fmt.Sprintf("cdfg: %v", err)
	}
	return sb.String()
}

// Parse reads a graph in the text format. The parsed graph is validated
// before being returned.
func Parse(r io.Reader) (*Graph, error) {
	g := New(0)
	byName := map[string]NodeID{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var buf [5][]byte
	lineno := 0
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fields := AppendFields(buf[:0], line)
		switch string(fields[0]) {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("cdfg: line %d: want 'node <name> <op>', got %q", lineno, line)
			}
			name := string(fields[1])
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("cdfg: line %d: duplicate node %q", lineno, name)
			}
			op, ok := lookupOp(fields[2])
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: %v", lineno, unknownOp(string(fields[2])))
			}
			byName[name] = g.AddNode(name, op)
		case "edge":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("cdfg: line %d: want 'edge <from> <to> [kind]', got %q", lineno, line)
			}
			from, ok := byName[string(fields[1])]
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: unknown node %q", lineno, fields[1])
			}
			to, ok := byName[string(fields[2])]
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: unknown node %q", lineno, fields[2])
			}
			kind := DataEdge
			if len(fields) == 4 {
				switch string(fields[3]) {
				case "data":
					kind = DataEdge
				case "ctrl":
					kind = ControlEdge
				case "temp":
					kind = TemporalEdge
				default:
					return nil, fmt.Errorf("cdfg: line %d: unknown edge kind %q", lineno, fields[3])
				}
			}
			if err := g.AddEdge(from, to, kind); err != nil {
				return nil, fmt.Errorf("cdfg: line %d: %v", lineno, err)
			}
		default:
			return nil, fmt.Errorf("cdfg: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cdfg: read: %v", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cdfg: parsed graph invalid: %v", err)
	}
	// byName is the graph's name index: the names are unique.
	g.names.Store(&byName)
	return g, nil
}

// AppendFields appends to dst the fields of line, split around runs of
// white space exactly as strings.Fields splits them, and returns the
// result. The fields alias line, so splitting into a caller's fixed
// array allocates nothing.
func AppendFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

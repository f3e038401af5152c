package cdfg

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The code the linear precedence passes and the fmt-free codec replaced,
// kept as the reference the differential tests and the fuzz targets
// compare against.

// appendUnique appends to dst, in order, every node of the lists not
// already appended, scanning what was appended for each candidate: cost
// quadratic in the degree, which a node with hundreds of successors pays.
func appendUnique(dst []NodeID, lists ...[]NodeID) []NodeID {
	start := len(dst)
	for _, l := range lists {
		for _, u := range l {
			if !contains(dst[start:], u) {
				dst = append(dst, u)
			}
		}
	}
	return dst
}

func (g *Graph) predsAllReference(dst []NodeID, v NodeID) []NodeID {
	return appendUnique(dst, g.dataIn[v], g.ctrlIn[v], g.tempIn[v])
}

func (g *Graph) succsAllReference(dst []NodeID, v NodeID) []NodeID {
	return appendUnique(dst, g.dataOut[v], g.ctrlOut[v], g.tempOut[v])
}

func (g *Graph) predsReference(opts PathOpts, dst []NodeID, v NodeID) []NodeID {
	if opts.IncludeTemporal {
		return appendUnique(dst, g.dataIn[v], g.ctrlIn[v], g.tempIn[v])
	}
	return appendUnique(dst, g.dataIn[v], g.ctrlIn[v])
}

func (g *Graph) succsReference(opts PathOpts, dst []NodeID, v NodeID) []NodeID {
	if opts.IncludeTemporal {
		return appendUnique(dst, g.dataOut[v], g.ctrlOut[v], g.tempOut[v])
	}
	return appendUnique(dst, g.dataOut[v], g.ctrlOut[v])
}

// topoOrderReference is Kahn's algorithm with a linear scan of the ready
// frontier for its smallest ID.
func (g *Graph) topoOrderReference() ([]NodeID, error) {
	n := len(g.nodes)
	indeg := make([]int, n)
	var scratch []NodeID
	for v := 0; v < n; v++ {
		scratch = g.predsAllReference(scratch[:0], NodeID(v))
		indeg[v] = len(scratch)
	}
	var frontier []NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, NodeID(v))
		}
	}
	order := make([]NodeID, 0, n)
	for len(frontier) > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i] < frontier[best] {
				best = i
			}
		}
		v := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, v)
		scratch = g.succsAllReference(scratch[:0], v)
		for _, w := range scratch {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cdfg: graph has a precedence cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

func (g *Graph) longestToReference(opts PathOpts) ([]int, error) {
	order, err := g.topoOrderReference()
	if err != nil {
		return nil, err
	}
	to := make([]int, len(g.nodes))
	var scratch []NodeID
	for _, v := range order {
		best := 0
		scratch = g.predsReference(opts, scratch[:0], v)
		for _, u := range scratch {
			if to[u] > best {
				best = to[u]
			}
		}
		to[v] = best + g.nodeWeight(opts, v)
	}
	return to, nil
}

func (g *Graph) longestFromReference(opts PathOpts) ([]int, error) {
	order, err := g.topoOrderReference()
	if err != nil {
		return nil, err
	}
	from := make([]int, len(g.nodes))
	var scratch []NodeID
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		scratch = g.succsReference(opts, scratch[:0], v)
		for _, w := range scratch {
			if from[w] > best {
				best = from[w]
			}
		}
		from[v] = best + g.nodeWeight(opts, v)
	}
	return from, nil
}

// temporalWeightedReference is the former uncached computation behind
// PathOracle.TemporalWeighted: longest paths over the full precedence
// relation with temporal edges charged tempW each.
func (g *Graph) temporalWeightedReference(weight WeightFunc, tempW int) (toW, fromW []int, err error) {
	order, err := g.topoOrderReference()
	if err != nil {
		return nil, nil, err
	}
	opts := PathOpts{Weight: weight}
	edgeW := func(a, b NodeID) int {
		if contains(g.tempOut[a], b) {
			return tempW
		}
		return 0
	}
	n := len(g.nodes)
	toW = make([]int, n)
	var scratch []NodeID
	for _, v := range order {
		best := 0
		scratch = g.predsAllReference(scratch[:0], v)
		for _, p := range scratch {
			if cand := toW[p] + edgeW(p, v); cand > best {
				best = cand
			}
		}
		toW[v] = best + g.nodeWeight(opts, v)
	}
	fromW = make([]int, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		scratch = g.succsAllReference(scratch[:0], v)
		for _, w := range scratch {
			if cand := fromW[w] + edgeW(v, w); cand > best {
				best = cand
			}
		}
		fromW[v] = best + g.nodeWeight(opts, v)
	}
	return toW, fromW, nil
}

// hasPathReference is the former HasPath: a depth-first walk with a
// fresh visited slice per query.
func (g *Graph) hasPathReference(src, dst NodeID) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{src}
	seen[src] = true
	var scratch []NodeID
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		scratch = g.succsAllReference(scratch[:0], v)
		for _, w := range scratch {
			if w == dst {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// reachReference is the walk of the former schedwm.reachFromDelta, on a
// graph with the pending edges inserted: it flags the nodes reachable
// from seeds, or reaching them when backward is set, seeds included.
func (g *Graph) reachReference(seeds []NodeID, backward bool) []bool {
	seen := make([]bool, len(g.nodes))
	var stack []NodeID
	push := func(v NodeID) {
		if !seen[v] {
			seen[v] = true
			stack = append(stack, v)
		}
	}
	for _, v := range seeds {
		push(v)
	}
	var scratch []NodeID
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if backward {
			scratch = g.predsAllReference(scratch[:0], v)
		} else {
			scratch = g.succsAllReference(scratch[:0], v)
		}
		for _, u := range scratch {
			push(u)
		}
	}
	return seen
}

// nodeByNameReference is the former NodeByName: a scan of every node.
func (g *Graph) nodeByNameReference(name string) (Node, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// writeReference is the former fmt-based Write.
func writeReference(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, n := range g.Nodes() {
		fmt.Fprintf(bw, "node %s %s\n", n.Name, n.Op)
	}
	for _, n := range g.Nodes() {
		for _, u := range g.DataIn(n.ID) {
			fmt.Fprintf(bw, "edge %s %s data\n", g.Node(u).Name, n.Name)
		}
	}
	for _, n := range g.Nodes() {
		for _, u := range g.ctrlIn[n.ID] {
			fmt.Fprintf(bw, "edge %s %s ctrl\n", g.Node(u).Name, n.Name)
		}
	}
	for _, e := range g.TemporalEdges() {
		fmt.Fprintf(bw, "edge %s %s temp\n", g.Node(e.From).Name, g.Node(e.To).Name)
	}
	return bw.Flush()
}

// parseReference is the former Parse, splitting each line with
// strings.Fields.
func parseReference(r io.Reader) (*Graph, error) {
	g := New(0)
	byName := map[string]NodeID{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("cdfg: line %d: want 'node <name> <op>', got %q", lineno, line)
			}
			name := fields[1]
			if _, dup := byName[name]; dup {
				return nil, fmt.Errorf("cdfg: line %d: duplicate node %q", lineno, name)
			}
			op, err := ParseOp(fields[2])
			if err != nil {
				return nil, fmt.Errorf("cdfg: line %d: %v", lineno, err)
			}
			byName[name] = g.AddNode(name, op)
		case "edge":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("cdfg: line %d: want 'edge <from> <to> [kind]', got %q", lineno, line)
			}
			from, ok := byName[fields[1]]
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: unknown node %q", lineno, fields[1])
			}
			to, ok := byName[fields[2]]
			if !ok {
				return nil, fmt.Errorf("cdfg: line %d: unknown node %q", lineno, fields[2])
			}
			kind := DataEdge
			if len(fields) == 4 {
				switch fields[3] {
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
	return g, nil
}

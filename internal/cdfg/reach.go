package cdfg

// Reach is a reusable precedence-reachability walk over a graph extended
// by pending edges: precedence constraints not in the graph, such as the
// ones a watermark encoder has drawn but not yet committed. The zero value
// is ready to use; one Reach serves one goroutine at a time.
type Reach struct {
	seen  NodeMarks
	tails NodeMarks // pending edges' sources
	stack []NodeID
}

// Path reports whether a precedence path leads from src to dst over g
// plus the pending edges; src == dst counts as one.
func (r *Reach) Path(g *Graph, pending []Edge, src, dst NodeID) bool {
	if src == dst {
		return true
	}
	n := len(g.nodes)
	r.seen.Reset(n)
	r.tails.Reset(n)
	for _, e := range pending {
		r.tails.Add(e.From)
	}
	r.seen.Add(src)
	r.stack = append(r.stack[:0], src)
	for len(r.stack) > 0 {
		v := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, u := range g.precOut[v] {
			if r.visit(u, dst) {
				return true
			}
		}
		if !r.tails.Has(v) {
			continue
		}
		for _, e := range pending {
			if e.From == v && r.visit(e.To, dst) {
				return true
			}
		}
	}
	return false
}

// visit marks v, queueing it on first sight, and reports whether it is
// dst.
func (r *Reach) visit(v, dst NodeID) bool {
	if v == dst {
		return true
	}
	if r.seen.Add(v) {
		r.stack = append(r.stack, v)
	}
	return false
}

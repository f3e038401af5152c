package cdfg

// Reach is a reusable precedence-reachability walk over a graph extended
// by pending edges: precedence constraints not in the graph, such as the
// ones a watermark encoder has drawn but not yet committed. The zero value
// is ready to use; one Reach serves one goroutine at a time.
type Reach struct {
	seen  NodeMarks
	ends  NodeMarks // pending edges' endpoints on the walk's near side
	stack []NodeID
}

// Walk marks the nodes reachable from seeds along edges of every kind and
// the pending edges (against them when backward is set), seeds included.
// It reports whether the walk reached stop, and stops there; pass None to
// mark everything reachable and query the result with Reached.
func (r *Reach) Walk(g *Graph, pending []Edge, backward bool, stop NodeID, seeds ...NodeID) bool {
	n := len(g.nodes)
	r.seen.Reset(n)
	r.ends.Reset(n)
	for _, e := range pending {
		if backward {
			r.ends.Add(e.To)
		} else {
			r.ends.Add(e.From)
		}
	}
	r.stack = r.stack[:0]
	for _, v := range seeds {
		if r.visit(v, stop) {
			return true
		}
	}
	adj := g.precOut
	if backward {
		adj = g.precIn
	}
	for len(r.stack) > 0 {
		v := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		for _, u := range adj[v] {
			if r.visit(u, stop) {
				return true
			}
		}
		if !r.ends.Has(v) {
			continue
		}
		for _, e := range pending {
			near, far := e.From, e.To
			if backward {
				near, far = far, near
			}
			if near == v && r.visit(far, stop) {
				return true
			}
		}
	}
	return false
}

// Path reports whether a precedence path leads from src to dst over g
// plus the pending edges; src == dst counts as one.
func (r *Reach) Path(g *Graph, pending []Edge, src, dst NodeID) bool {
	return r.Walk(g, pending, false, dst, src)
}

// visit marks v, queueing it on first sight, and reports whether it is
// stop.
func (r *Reach) visit(v, stop NodeID) bool {
	if v == stop {
		return true
	}
	if r.seen.Add(v) {
		r.stack = append(r.stack, v)
	}
	return false
}

// Reached reports whether the last Walk marked v. After a walk that
// stopped early the marks are partial.
func (r *Reach) Reached(v NodeID) bool { return r.seen.Has(v) }

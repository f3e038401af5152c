// Package sched is the operation-scheduling substrate: ASAP/ALAP window
// analysis, resource-constrained list scheduling, time-constrained
// force-directed scheduling (Paulin–Knight), schedule verification, and —
// for small designs — exact exhaustive enumeration of all feasible
// schedules, which is how the paper computes exact solution-coincidence
// probabilities.
//
// Conventions: control steps are 1-based; only computational nodes (see
// cdfg.Op.IsComputational) are scheduled; every operation has unit latency
// (homogeneous SDF). Temporal (watermark) edges are precedence constraints
// exactly like data edges whenever a query's UseTemporal flag is set.
package sched

import (
	"fmt"

	"localwm/internal/cdfg"
)

// Windows holds the ASAP/ALAP control-step window of every node for a
// given control-step budget. Non-computational nodes have ASAP = ALAP = 0
// (they are not scheduled).
type Windows struct {
	ASAP   []int // earliest feasible control step, 1-based
	ALAP   []int // latest feasible control step, 1-based
	Budget int   // number of available control steps
}

// Width returns the number of feasible steps for v (0 for unscheduled
// kinds).
func (w *Windows) Width(v cdfg.NodeID) int {
	if w.ASAP[v] == 0 {
		return 0
	}
	return w.ALAP[v] - w.ASAP[v] + 1
}

// Overlaps reports whether the scheduling periods of a and b overlap in
// the sense the watermarking protocol uses for lifetime compatibility:
// asap(a) + 1 < alap(b) or asap(b) + 1 < alap(a). Two operations with
// overlapping periods can be ordered either way by a scheduler, which is
// what makes a temporal edge between them informative rather than implied.
func (w *Windows) Overlaps(a, b cdfg.NodeID) bool {
	if w.ASAP[a] == 0 || w.ASAP[b] == 0 {
		return false
	}
	return w.ASAP[a]+1 < w.ALAP[b] || w.ASAP[b]+1 < w.ALAP[a]
}

// ComputeWindows derives ASAP/ALAP windows for budget control steps.
// If useTemporal is set, temporal edges constrain the windows too. An
// error is returned when the budget is smaller than the (possibly
// temporal-edge-extended) critical path, i.e. no feasible schedule exists.
func ComputeWindows(g *cdfg.Graph, budget int, useTemporal bool) (*Windows, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("sched: non-positive control-step budget %d", budget)
	}
	// Longest paths come from the graph's PathOracle: window analysis is
	// re-run constantly (per watermark candidate, per detection record, per
	// tamper sweep) on an unchanged graph, and the cache collapses those
	// recomputes into one.
	to, from, err := g.Oracle().Longest(cdfg.PathOpts{IncludeTemporal: useTemporal})
	if err != nil {
		return nil, err
	}
	w := &Windows{
		ASAP:   make([]int, g.Len()),
		ALAP:   make([]int, g.Len()),
		Budget: budget,
	}
	for v := range w.ASAP {
		if !g.Node(cdfg.NodeID(v)).Op.IsComputational() {
			continue
		}
		w.ASAP[v] = to[v]                // chain length ending here == earliest step
		w.ALAP[v] = budget - from[v] + 1 // leave room for the chain after
		if w.ASAP[v] > w.ALAP[v] {
			return nil, fmt.Errorf("sched: budget %d infeasible: node %s needs window [%d,%d]",
				budget, g.Node(cdfg.NodeID(v)).Name, w.ASAP[v], w.ALAP[v])
		}
	}
	return w, nil
}

// MinBudget returns the smallest feasible control-step budget (the length
// of the critical path over data+control edges, extended by temporal edges
// when useTemporal is set).
func MinBudget(g *cdfg.Graph, useTemporal bool) (int, error) {
	to, _, err := g.Oracle().Longest(cdfg.PathOpts{IncludeTemporal: useTemporal})
	if err != nil {
		return 0, err
	}
	best := 0
	for _, l := range to {
		if l > best {
			best = l
		}
	}
	if best == 0 {
		best = 1 // a graph with no computational nodes still "fits" in one step
	}
	return best, nil
}

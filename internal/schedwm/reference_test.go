package schedwm

import (
	"fmt"

	"localwm/internal/cdfg"
	"localwm/internal/sched"
)

// The code the shared cdfg precedence passes and the oracle-backed Prepare
// replaced, kept as the reference the differential tests compare against.

// pathsWithPending computes weighted longest paths over g (all edge kinds)
// extended by the pending watermark edges, each modeled as its realizing
// unit operation of weight unitW. Used to keep the no-stretch test exact
// while edges accumulate within one encoding pass.
func pathsWithPending(g *cdfg.Graph, weight cdfg.WeightFunc, pending []cdfg.Edge, unitW int) (toW, fromW []int, err error) {
	n := g.Len()
	succ := make([][]cdfg.NodeID, n)
	pred := make([][]cdfg.NodeID, n)
	extra := make(map[[2]cdfg.NodeID]bool, len(pending))
	var scratch []cdfg.NodeID
	for v := 0; v < n; v++ {
		scratch = g.SuccsAll(scratch[:0], cdfg.NodeID(v))
		succ[v] = append(succ[v], scratch...)
		// Temporal edges already in g will also be realized as unit ops;
		// charge them the same extra weight as the pending ones.
		for _, w := range g.TemporalOut(cdfg.NodeID(v)) {
			extra[[2]cdfg.NodeID{cdfg.NodeID(v), w}] = true
		}
	}
	for _, e := range pending {
		succ[e.From] = append(succ[e.From], e.To)
		extra[[2]cdfg.NodeID{e.From, e.To}] = true
	}
	indeg := make([]int, n)
	for v := range succ {
		for _, w := range succ[v] {
			pred[w] = append(pred[w], cdfg.NodeID(v))
			indeg[w]++
		}
	}
	wOf := func(v cdfg.NodeID) int {
		op := g.Node(v).Op
		if !op.IsComputational() {
			return 0
		}
		if weight != nil {
			return weight(op)
		}
		return 1
	}
	edgeW := func(a, b cdfg.NodeID) int {
		if extra[[2]cdfg.NodeID{a, b}] {
			return unitW
		}
		return 0
	}
	// Topological order over the extended graph.
	var frontier []cdfg.NodeID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, cdfg.NodeID(v))
		}
	}
	var order []cdfg.NodeID
	for len(frontier) > 0 {
		v := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		order = append(order, v)
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	if len(order) != n {
		return nil, nil, fmt.Errorf("schedwm: pending edges create a cycle")
	}
	toW = make([]int, n)
	for _, v := range order {
		best := 0
		for _, p := range pred[v] {
			if cand := toW[p] + edgeW(p, v); cand > best {
				best = cand
			}
		}
		toW[v] = best + wOf(v)
	}
	fromW = make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0
		for _, w := range succ[v] {
			if cand := fromW[w] + edgeW(v, w); cand > best {
				best = cand
			}
		}
		fromW[v] = best + wOf(v)
	}
	return toW, fromW, nil
}

// pathConsidering reports whether there is a precedence path from src to
// dst in g, also considering the pending (not yet inserted) edges.
func pathConsidering(g *cdfg.Graph, pending []cdfg.Edge, src, dst cdfg.NodeID) bool {
	if src == dst {
		return true
	}
	seen := map[cdfg.NodeID]bool{src: true}
	stack := []cdfg.NodeID{src}
	var scratch []cdfg.NodeID
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		scratch = g.SuccsAll(scratch[:0], v)
		for _, e := range pending {
			if e.From == v {
				scratch = append(scratch, e.To)
			}
		}
		for _, u := range scratch {
			if u == dst {
				return true
			}
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return false
}

// prepareReference is the former Prepare: the critical paths and the
// laxities computed afresh on every call, beside the oracle-backed budget
// and windows.
func prepareReference(g *cdfg.Graph, cfg Config) (*Analyses, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == 0 {
		budget, err = sched.MinBudget(g, false)
		if err != nil {
			return nil, err
		}
	}
	cpSteps, err := g.CriticalPath()
	if err != nil {
		return nil, err
	}
	if budget < cpSteps {
		return nil, fmt.Errorf("schedwm: budget %d below critical path %d", budget, cpSteps)
	}
	// Eligibility is judged under the configured weighting (unit steps by
	// default, machine cycles when OpWeight is set).
	cp, err := g.CriticalPathW(cfg.OpWeight)
	if err != nil {
		return nil, err
	}
	lax, err := g.LaxitiesW(cfg.OpWeight)
	if err != nil {
		return nil, err
	}
	windows, err := sched.ComputeWindows(g, budget, false)
	if err != nil {
		return nil, err
	}
	unitW := 1
	if cfg.OpWeight != nil {
		unitW = cfg.OpWeight(cdfg.OpUnit)
	}
	// Paths through watermark edges may use schedule slack in the
	// control-step world; under a machine latency weighting the goal is
	// zero cycle overhead, so the bound stays at the cycle-level critical
	// path itself.
	stretchBound := cp * budget / cpSteps
	if cfg.OpWeight != nil {
		stretchBound = cp
	}
	return &Analyses{
		Budget:       budget,
		CPSteps:      cpSteps,
		CP:           cp,
		Lax:          lax,
		Windows:      windows,
		UnitW:        unitW,
		StretchBound: stretchBound,
		LaxityBound:  float64(cp) * (1 - cfg.Epsilon),
	}, nil
}

// refSortByRank is the insertion sort over a rank map that sortByRank
// replaced.
func refSortByRank(nodes []cdfg.NodeID, rank map[cdfg.NodeID]int) []cdfg.NodeID {
	out := append([]cdfg.NodeID(nil), nodes...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank[out[j]] < rank[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

package schedwm

import (
	"fmt"

	"localwm/internal/cdfg"
	"localwm/internal/prng"
)

// Speculative embedding support for the parallel engine (internal/engine).
//
// Sequential EmbedMany has a strict data dependence: watermark idx sees the
// temporal edges committed by watermarks 0..idx-1, and its root picks come
// from a master bitstream the earlier watermarks advanced. Two observations
// break the dependence without changing a single embedded bit:
//
//  1. Root picking (domain.PickRoot) reads only the static node/data-edge
//     structure, which embedding never touches — so the entire pick
//     sequence can be replayed up front from a fresh master stream, and a
//     watermark's picks are fully determined by its *offset* into that
//     sequence (the number of picks earlier watermarks consumed).
//
//  2. Every filter embedding applies is monotone in the temporal-edge set:
//     adding edges only lengthens weighted paths and grows reachability, so
//     a candidate pair (or an entire try, or an entire watermark) that was
//     REJECTED against a snapshot stays rejected when more edges exist.
//     Only ACCEPTED candidate pairs can flip. A speculative result
//     therefore replays identically on the true graph iff its pick offset
//     was right and each accepted pair still passes the stretch and
//     cycle/implication checks — which is what Spec.Valid certifies.
//
// The engine speculates all uncommitted watermarks in parallel against a
// cloned snapshot, then commits them in index order, validating each
// against the edges committed after the snapshot (delta). On the first
// mismatch it stops and re-speculates from the true state; the head of
// every round has a correct offset and an empty delta, so each round
// commits at least one watermark and the scheme degrades, at worst, to
// sequential embedding plus bounded speculation overhead.

// specTrace records the decisions of one successful encode pass that
// depend on the temporal-edge state: for every edge-drawing step, the
// length of the pending-edge prefix in effect and the candidate pairs that
// survived all filters.
type specTrace struct {
	steps []specStep
}

type specStep struct {
	pendingLen int              // wm.Edges prefix active during this step's checks
	pairs      [][2]cdfg.NodeID // accepted (n_i, n_j) candidates, selection order
}

// Spec is one speculatively embedded watermark: the result embedOne
// produced against a graph snapshot, plus what Valid needs to certify it
// against the graph's true state.
type Spec struct {
	Index int
	// WM and Err mirror embedOne's return: exactly one is set.
	WM  *Watermark
	Err error
	// Picks is the number of master-stream root picks the sequential path
	// consumes for this watermark: Tries on success, MaxTries on placement
	// failure, always 0 under a pinned root.
	Picks int

	trace specTrace
}

// EmbedSpec speculatively embeds the idx-th watermark of sig against snap,
// drawing roots from the precomputed pick sequence roots (the slice must
// start at this watermark's pick offset and hold at least cfg.MaxTries
// picks; ignored when cfg.Root pins the root). cfg must be normalized and
// an prepared for the same config on a structurally identical graph.
//
// snap is only read, never written, so many EmbedSpec calls may run
// concurrently against one shared snapshot — longest-path queries meet in
// the snapshot's PathOracle, which is what makes speculation cheaper than
// n independent sequential embeddings.
func EmbedSpec(snap *cdfg.Graph, sig prng.Signature, cfg Config, idx int, an *Analyses, roots []cdfg.NodeID) *Spec {
	sp := &Spec{Index: idx}
	rootAt := func(try int) (cdfg.NodeID, error) {
		if cfg.Root != nil {
			return *cfg.Root, nil
		}
		if try-1 >= len(roots) {
			return 0, fmt.Errorf("schedwm: speculation exhausted %d precomputed root picks", len(roots))
		}
		return roots[try-1], nil
	}
	sp.WM, sp.Err = embedOne(snap, an, rootAt, sig, cfg, idx, &sp.trace)
	if cfg.Root == nil {
		if sp.Err != nil {
			// A placement failure burns every try (root errors cannot occur
			// here: the pick sequence was precomputed successfully).
			sp.Picks = cfg.MaxTries
		} else {
			sp.Picks = sp.WM.Tries
		}
	}
	return sp
}

// Valid reports whether the spec replays identically on g, whose temporal
// edges now include delta — the watermark edges committed since the
// snapshot the spec was computed against. cfg and an must be the ones the
// spec was built with.
//
// Failed specs are always valid: rejection is monotone in the temporal-
// edge set, so a watermark that found no placement against the snapshot
// finds none against the bigger graph either, with the same error. For
// successful specs, every recorded accepted pair is rechecked under the
// true graph; a cheap reachability filter (can the pair even see a delta
// edge?) skips the expensive exact rechecks for the common case of
// disjoint watermark localities. Any flipped decision — including a delta
// edge duplicating one of the spec's own — invalidates the spec, and the
// engine re-speculates from the true state.
func (sp *Spec) Valid(g *cdfg.Graph, cfg Config, an *Analyses, delta []cdfg.Edge) bool {
	if sp.Err != nil || len(delta) == 0 {
		return true
	}
	wm := sp.WM
	// fwd marks v if a new path into v may exist (v is reachable from some
	// delta head), bwd if a new path out of v may exist (v reaches some
	// delta tail). Both traverse the full pending set — a superset of every
	// step's prefix — so "not marked" is definitive for all steps. The
	// delta edges themselves are already in g; seeding with their
	// endpoints makes the endpoints count as trivially reachable.
	heads := make([]cdfg.NodeID, len(delta))
	tails := make([]cdfg.NodeID, len(delta))
	for i, e := range delta {
		heads[i], tails[i] = e.To, e.From
	}
	var fwd, bwd, walk cdfg.Reach
	fwd.Walk(g, wm.Edges, false, cdfg.None, heads...)
	bwd.Walk(g, wm.Edges, true, cdfg.None, tails...)
	var paths cdfg.PathScratch
	var toW, fromW []int
	havePrefix := -1
	for _, st := range sp.trace.steps {
		prefix := wm.Edges[:st.pendingLen]
		for _, pr := range st.pairs {
			ni, nj := pr[0], pr[1]
			// Stretch: toW[ni] can only have grown if ni sees a delta head,
			// fromW[nj] only if nj reaches a delta tail.
			if fwd.Reached(ni) || bwd.Reached(nj) {
				if havePrefix != st.pendingLen {
					var err error
					toW, fromW, err = g.WeightedLongest(&paths, cfg.OpWeight, an.UnitW, prefix)
					if err != nil {
						return false // delta + pending now cycles: genuine conflict
					}
					havePrefix = st.pendingLen
				}
				if toW[ni]+an.UnitW+fromW[nj] > an.StretchBound {
					return false
				}
			}
			// Cycle check: a new path nj -> ni needs nj to reach a delta
			// tail and ni to be reachable from a delta head.
			if bwd.Reached(nj) && fwd.Reached(ni) && walk.Path(g, prefix, nj, ni) {
				return false
			}
			// Implication check, same reasoning with the roles swapped.
			if bwd.Reached(ni) && fwd.Reached(nj) && walk.Path(g, prefix, ni, nj) {
				return false
			}
		}
	}
	return true
}

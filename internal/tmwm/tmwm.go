// Package tmwm implements local watermarking of template-matching
// solutions (paper §IV-B, pseudocode Fig. 5).
//
// The signature-keyed bitstream repeatedly (Z times) picks one matching
// from the exhaustive enumeration of node-to-module matchings over the
// eligible subtree and *enforces* it: every variable flowing into or out
// of the enforced module is promoted to a pseudo-primary output (PPO), so
// any correct mapping tool must keep those variables visible — which pins
// the chosen module in place. The enforced matchings are the watermark;
// detection checks that a suspect covering actually instantiates them.
//
// Eligibility mirrors the scheduling protocol's laxity rule, here stated
// explicitly by the paper: all nodes on the critical path, or on paths of
// laxity greater than C·(1-ε), are excluded from T so the watermark does
// not degrade the matchings along the timing-critical spine.
package tmwm

import (
	"fmt"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/order"
	"localwm/internal/prng"
	"localwm/internal/stats"
	"localwm/internal/tmatch"
)

// Config parameterizes embedding.
type Config struct {
	// Z is the number of matchings to enforce.
	Z int
	// Epsilon is the laxity margin ε: nodes with laxity above B·(1-ε) are
	// excluded from the eligible set T', where B is Budget (the paper's
	// tight configuration, Budget = C, gives exactly its C·(1-ε) rule).
	Epsilon float64
	// Budget is the control-step budget the mapped design will be
	// scheduled into. Zero means the critical path C. A relaxed budget
	// (e.g. 2·C) widens eligibility proportionally: with real slack in
	// the schedule, constraining a structurally critical node no longer
	// risks the timing.
	Budget int
	// Lib is the module library. Nil means tmatch.StandardLibrary().
	Lib *tmatch.Library
	// WholeGraph applies the protocol with T = CDFG (the configuration of
	// the paper's Table II experiments): the eligible set is the laxity
	// filter of the whole design, and node identities come from the
	// global canonical ordering.
	WholeGraph bool
	// Tau, Domain and MaxTries configure subtree-based domains when
	// WholeGraph is false, exactly as in schedwm.
	Tau      int
	Domain   domain.Config
	MaxTries int
}

func (c Config) withDefaults() (Config, error) {
	if c.Z <= 0 {
		return c, fmt.Errorf("tmwm: Z must be positive")
	}
	if c.Epsilon <= 0 || c.Epsilon > 1 {
		return c, fmt.Errorf("tmwm: ε = %v outside (0,1]", c.Epsilon)
	}
	if c.Lib == nil {
		c.Lib = tmatch.StandardLibrary()
	}
	if err := c.Lib.Validate(); err != nil {
		return c, err
	}
	if !c.WholeGraph {
		if c.Tau <= 0 {
			return c, fmt.Errorf("tmwm: τ must be positive in domain mode")
		}
		c.Domain.Tau = c.Tau
	}
	if c.MaxTries == 0 {
		c.MaxTries = 32
	}
	return c, nil
}

// domainStream keys the domain-mode walk by (signature, watermark index,
// try); the try component keeps retries diverse on self-similar designs
// (see the matching comment in package schedwm).
func domainStream(sig prng.Signature, idx, try int) (*prng.Bitstream, error) {
	key := append(append(prng.Signature{}, sig...),
		[]byte(fmt.Sprintf("/tmatch-domain/%d/%d", idx, try))...)
	return prng.NewBitstream(key)
}

// RankMatching is a matching expressed in rank space: Template names the
// library module and Ranks the matched nodes (preorder slot order) by
// their position in the canonical ordering. This is what the detector
// memorizes.
type RankMatching struct {
	Template int
	Ranks    []int
}

// Watermark records an embedding.
type Watermark struct {
	Signature prng.Signature
	Config    Config
	// Index distinguishes the local watermarks of one signature when
	// several are embedded (domain mode); it keys the walk sub-stream.
	Index int

	Root     cdfg.NodeID // cdfg.None in whole-graph mode
	RootFP   string      // root fingerprint (domain mode)
	Enforced []tmatch.Matching
	PPO      map[cdfg.NodeID]bool
	// RankEnforced is the detector-facing description of Enforced.
	RankEnforced []RankMatching

	// Order is the ordering ranks refer to. In domain mode it is the
	// domain's shared, read-only ordering (domain.Domain.Order).
	Order *order.Result
	Tries int
}

// sharedState accumulates the constraint set across the local watermarks
// of one signature: matchings enforced by one watermark must not be
// re-enforced (or re-covered) by another, and PPOs are cumulative.
type sharedState struct {
	ppo       map[cdfg.NodeID]bool
	processed map[cdfg.NodeID]bool
}

// Embed selects and enforces Z matchings on g according to sig. The graph
// itself is not modified — the watermark lives in the constraint set
// (enforced matchings + PPO set), which the caller passes to the mapping
// flow (tmatch.GreedyCover / Allocate).
func Embed(g *cdfg.Graph, sig prng.Signature, cfg Config) (*Watermark, error) {
	wms, err := EmbedMany(g, sig, cfg, 1)
	if err != nil {
		return nil, err
	}
	return wms[0], nil
}

// EmbedMany embeds up to n independent domain-mode template watermarks
// for the same signature, each in its own pseudo-randomly chosen
// locality. Their enforced matchings are pairwise disjoint and their PPO
// sets cumulative; pass the combined constraints to the mapping flow with
// CombineConstraints. In whole-graph mode only n = 1 is meaningful (more
// enforcements come from a larger Z).
func EmbedMany(g *cdfg.Graph, sig prng.Signature, cfg Config, n int) ([]*Watermark, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tmwm: non-positive watermark count %d", n)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.WholeGraph && n != 1 {
		return nil, fmt.Errorf("tmwm: whole-graph mode embeds a single watermark (raise Z instead)")
	}
	// Critical path and laxities come from the graph's PathOracle: both
	// ignore temporal edges, so repeated embeddings (and ownership
	// re-derivations) on the same design reuse one computation.
	cp, err := g.Oracle().CriticalPathW(nil)
	if err != nil {
		return nil, err
	}
	lax, err := g.Oracle().LaxitiesW(nil)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == 0 {
		budget = cp
	}
	if budget < cp {
		return nil, fmt.Errorf("tmwm: budget %d below critical path %d", budget, cp)
	}
	bound := float64(budget) * (1 - cfg.Epsilon)
	shared := &sharedState{ppo: map[cdfg.NodeID]bool{}, processed: map[cdfg.NodeID]bool{}}

	if cfg.WholeGraph {
		ord, err := order.Global(g, 0)
		if err != nil {
			return nil, err
		}
		ds, err := domainStream(sig, 0, 0)
		if err != nil {
			return nil, err
		}
		eligible := map[cdfg.NodeID]bool{}
		for _, v := range g.Computational() {
			if float64(lax[v]) <= bound {
				eligible[v] = true
			}
		}
		wm, err := encode(g, ds, cfg, eligible, ord, shared)
		if err != nil {
			return nil, err
		}
		wm.Signature = append(prng.Signature(nil), sig...)
		wm.Config = cfg
		wm.Root = cdfg.None
		wm.Tries = 1
		return []*Watermark{wm}, nil
	}

	master, err := prng.NewBitstream(sig)
	if err != nil {
		return nil, err
	}
	var out []*Watermark
	var lastErr error
	for idx := 0; idx < n; idx++ {
		wm, err := embedOne(g, master, sig, cfg, idx, lax, bound, shared)
		if err != nil {
			lastErr = err
			continue
		}
		out = append(out, wm)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tmwm: embedded 0 of %d watermarks: %v", n, lastErr)
	}
	return out, nil
}

func embedOne(g *cdfg.Graph, master *prng.Bitstream, sig prng.Signature, cfg Config,
	idx int, lax []int, bound float64, shared *sharedState) (*Watermark, error) {
	var lastErr error
	for try := 1; try <= cfg.MaxTries; try++ {
		root, err := domain.PickRoot(g, master)
		if err != nil {
			return nil, err
		}
		ds, err := domainStream(sig, idx, try)
		if err != nil {
			return nil, err
		}
		d, err := domain.Select(g, ds, root, cfg.Domain)
		if err != nil {
			lastErr = err
			continue
		}
		eligible := map[cdfg.NodeID]bool{}
		for _, v := range d.T {
			if g.Node(v).Op.IsComputational() && float64(lax[v]) <= bound {
				eligible[v] = true
			}
		}
		wm, err := encode(g, ds, cfg, eligible, d.Order, shared)
		if err != nil {
			lastErr = err
			continue
		}
		wm.Signature = append(prng.Signature(nil), sig...)
		wm.Config = cfg
		wm.Index = idx
		wm.Root = root
		wm.RootFP = domain.RootFingerprint(g, root)
		wm.Tries = try
		return wm, nil
	}
	return nil, fmt.Errorf("tmwm: no locality supported Z=%d enforcements after %d tries: %v",
		cfg.Z, cfg.MaxTries, lastErr)
}

// CombineConstraints merges the constraint sets of several watermarks for
// one synthesis run: all enforced matchings pre-seated and the PPO union
// active.
func CombineConstraints(wms []*Watermark) (enforced []tmatch.Matching, cons tmatch.Constraints) {
	cons = tmatch.Constraints{PPO: map[cdfg.NodeID]bool{}}
	for _, wm := range wms {
		enforced = append(enforced, wm.Enforced...)
		for v := range wm.PPO {
			cons.PPO[v] = true
		}
	}
	return enforced, cons
}

// encode runs the Fig. 5 loop: enumerate matchings over the eligible,
// unprocessed nodes; pseudo-randomly pick one; promote its boundary
// variables to PPOs; mark its nodes processed; repeat Z times. The shared
// state carries the accumulated constraints of earlier watermarks so the
// enforcements of one signature never collide.
func encode(g *cdfg.Graph, bs *prng.Bitstream, cfg Config,
	eligible map[cdfg.NodeID]bool, ord *order.Result, shared *sharedState) (*Watermark, error) {

	wm := &Watermark{PPO: map[cdfg.NodeID]bool{}, Order: ord}
	for z := 0; z < cfg.Z; z++ {
		cons := tmatch.Constraints{
			Allowed: eligible,
			PPO:     shared.ppo,
			Covered: shared.processed,
		}
		list := tmatch.EnumerateAll(g, cfg.Lib, cons)
		tmatch.SortMatchings(list)
		if len(list) == 0 {
			return nil, fmt.Errorf("tmwm: matchings exhausted after %d of %d enforcements", z, cfg.Z)
		}
		m := list[bs.Intn(len(list))]
		wm.Enforced = append(wm.Enforced, m)

		rm := RankMatching{Template: m.Template}
		for _, v := range m.Nodes {
			r, ok := ord.Rank(v)
			if !ok {
				return nil, fmt.Errorf("tmwm: internal: matched node %s outside ordering", g.Node(v).Name)
			}
			rm.Ranks = append(rm.Ranks, r)
		}
		wm.RankEnforced = append(wm.RankEnforced, rm)

		for _, v := range boundaryVars(g, m) {
			wm.PPO[v] = true
			shared.ppo[v] = true
		}
		for _, v := range m.Nodes {
			shared.processed[v] = true
		}
	}
	return wm, nil
}

// boundaryVars returns the producers of every variable used as input to,
// or produced as output of, the operations covered by matching m —
// the nodes the protocol promotes to PPOs. Primary inputs and other
// non-computational producers are skipped ("since one of the inputs ... is
// a primary input, it is not additionally constrained"), and so are the
// matching's own internal nodes (their values stay inside the module).
func boundaryVars(g *cdfg.Graph, m tmatch.Matching) []cdfg.NodeID {
	inside := map[cdfg.NodeID]bool{}
	for _, v := range m.Nodes {
		inside[v] = true
	}
	seen := map[cdfg.NodeID]bool{}
	var out []cdfg.NodeID
	for _, v := range m.Nodes {
		for _, u := range g.DataIn(v) {
			if inside[u] || seen[u] {
				continue
			}
			if !g.Node(u).Op.IsComputational() {
				continue
			}
			seen[u] = true
			out = append(out, u)
		}
	}
	// The module's own output variable: the root node itself.
	root := m.Nodes[0]
	if !seen[root] {
		out = append(out, root)
	}
	return cdfg.SortedIDs(out)
}

// Constraints returns the mapping-flow constraints a synthesis run must
// honor to produce the marked solution: the enforced matchings pre-seated
// and the PPO set active.
func (wm *Watermark) Constraints() (enforced []tmatch.Matching, cons tmatch.Constraints) {
	cons = tmatch.Constraints{PPO: wm.PPO}
	return wm.Enforced, cons
}

// ApproxPc estimates the solution-coincidence probability
// Pc ≈ Π 1/Solutions(m_i): for every enforced matching, the chance that an
// independent mapping run covers the same nodes the same way is one over
// the number of distinct disjoint-matching covers of those nodes.
func ApproxPc(g *cdfg.Graph, lib *tmatch.Library, wm *Watermark) (stats.LogProb, error) {
	pc := stats.LogProb(0)
	for _, m := range wm.Enforced {
		n, err := tmatch.CountCoverings(g, lib, tmatch.Constraints{}, m.Nodes)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			// The enforced matching itself is a covering, so n >= 1 always;
			// guard anyway.
			return 0, fmt.Errorf("tmwm: internal: zero coverings for enforced matching")
		}
		pc = pc.Mul(stats.FromRatio(1, float64(n)))
	}
	return pc, nil
}

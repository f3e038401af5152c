// Package schedwm implements local watermarking of operation-scheduling
// solutions (paper §IV-A, pseudocode Fig. 2).
//
// Embedding walks the author-keyed bitstream through three steps:
//
//  1. domain selection/identification — pick a root n_o, identify the
//     fan-in subtree T_o, canonically order it, and walk out a subtree T
//     (package domain);
//  2. eligibility filtering — keep the nodes of T whose laxity leaves at
//     least ε·C slack (so the watermark cannot stretch the schedule) and
//     that have a lifetime overlap with another eligible node (so a
//     temporal edge between them is informative), giving T';
//  3. constraint encoding — pseudo-randomly select an ordered subset T”
//     of K nodes and, for each, draw one temporal edge to a
//     lifetime-overlapping later member of T”.
//
// The temporal edges are ordinary precedence constraints; any scheduler
// that honors them produces a marked schedule. Detection re-derives the
// domain at every candidate root from the signature alone and checks the
// memorized rank-level constraints against the suspect schedule, which is
// why a watermark survives cropping the design or embedding it into a
// larger system, as long as its locality is intact.
package schedwm

import (
	"fmt"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/stats"
)

// Config parameterizes embedding.
type Config struct {
	// Tau is the target subtree cardinality τ = |T|.
	Tau int
	// TauPrime is the minimum eligible-set size τ' = |T'|; if a chosen
	// root yields fewer eligible nodes, subtree selection is repeated at a
	// new pseudo-random root. Zero defaults to K+1 (the smallest set that
	// can host K edges); the hard minimum is 2.
	TauPrime int
	// K is the number of temporal edges to draw.
	K int
	// Epsilon is the laxity margin ε ∈ (0, 1]: only nodes whose laxity is
	// at most C·(1-ε) are eligible, keeping the watermark off the
	// (near-)critical paths. (The paper's Fig. 2 line 3 prints the
	// comparison as ">", but the prose — "to avoid significant timing
	// overhead and to increase the scheduling freedom" — and the
	// template-matching protocol, which explicitly *excludes* nodes of
	// laxity greater than C·(1-ε), fix the intended direction.)
	Epsilon float64
	// Budget is the number of available control steps used for the
	// ASAP/ALAP lifetime analysis. Zero means the critical path length.
	Budget int
	// OpWeight, when non-nil, weights operations for the laxity/critical-
	// path eligibility test — pass a machine latency table (e.g.
	// vliw.Machine.OpWeight) so constraints stay off cycle-critical paths
	// rather than merely step-critical ones. Window/overlap analysis stays
	// in unit control steps either way.
	OpWeight cdfg.WeightFunc
	// AllEligible skips the laxity filter so that T' = T (minus the
	// lifetime-overlap requirement). The paper's Fig. 3 motivational
	// example works under exactly this assumption ("Assuming that
	// T' = T"); production embeddings should leave it off.
	AllEligible bool
	// MaxOrderProb, when in (0, 1), keeps only informative constraint
	// candidates: a pair qualifies only if the chance an independent
	// schedule satisfies the enforced order is at most this value. Lower
	// values yield fewer but much stronger edges (each contributes
	// -log10(p) to the proof exponent). Zero disables the filter.
	MaxOrderProb float64
	// MaxTries bounds the number of root re-selections. Zero means 64.
	MaxTries int
	// Root, when not nil, pins the domain root instead of having the
	// bitstream pick one pseudo-randomly — used by the figure-reproduction
	// harness to mark a specific locality (e.g. the paper's Fig. 3
	// subtree) and by callers that manage root selection themselves.
	// Retries still explore different walks at the pinned root (the walk
	// stream is keyed by the try index).
	Root *cdfg.NodeID
	// Domain tunes the subtree walk (inclusion probability, max distance).
	// Tau is copied into it.
	Domain domain.Config
}

// Normalized returns the config with defaults applied (τ' from K, the
// MaxTries fallback, Domain.Tau) after validating the parameter ranges.
// The result is idempotent under further normalization.
func (c Config) Normalized() (Config, error) { return c.withDefaults() }

func (c Config) withDefaults() (Config, error) {
	if c.Tau <= 0 {
		return c, fmt.Errorf("schedwm: τ must be positive")
	}
	if c.K <= 0 {
		return c, fmt.Errorf("schedwm: K must be positive")
	}
	if c.TauPrime == 0 {
		c.TauPrime = c.K + 1
	}
	if c.TauPrime < 2 {
		// K is a target edge count and each edge needs a lifetime-
		// overlapping pair, so any eligible set smaller than 2 is useless.
		return c, fmt.Errorf("schedwm: τ' (%d) must be at least 2", c.TauPrime)
	}
	if c.Epsilon <= 0 || c.Epsilon > 1 {
		return c, fmt.Errorf("schedwm: ε = %v outside (0,1]", c.Epsilon)
	}
	if c.MaxTries == 0 {
		c.MaxTries = 64
	}
	c.Domain.Tau = c.Tau
	return c, nil
}

// domainStream keys the walk sub-stream of the idx-th local watermark's
// try-th placement attempt. Deriving the walk from (signature ‖ suffix ‖
// index ‖ try) rather than from the running master stream makes it a
// function of public values plus the root's local structure only, so a
// detector can replay it on a cropped or embedded copy of the design
// without knowing anything about the global graph the embedder saw. The
// try component matters on self-similar designs (e.g. a homogeneous
// filter cascade), where every candidate root looks alike: without it,
// every retry would repeat the identical — possibly unlucky — walk.
func domainStream(sig prng.Signature, idx, try int) (*prng.Bitstream, error) {
	key := append(append(prng.Signature{}, sig...),
		[]byte(fmt.Sprintf("/sched-domain/%d/%d", idx, try))...)
	return prng.NewBitstream(key)
}

// Watermark is the record produced by Embed. Detection needs only the
// signature, the domain configuration, and RankEdges; the concrete node
// IDs are diagnostics valid for the graph that was marked.
type Watermark struct {
	Signature prng.Signature
	Config    Config
	// Index distinguishes the local watermarks of one signature when
	// several are embedded in the same design ("a number of small
	// watermarks are randomly augmented in the design"); it keys the
	// domain sub-stream.
	Index int

	Root   cdfg.NodeID    // chosen root n_o
	RootFP string         // structural fingerprint of the root
	Domain *domain.Domain // selected locality
	TPrime []cdfg.NodeID  // eligible nodes T' (canonical order)
	TSel   []cdfg.NodeID  // ordered selection T''
	Edges  []cdfg.Edge    // temporal edges added to the graph

	// RankEdges encodes each temporal edge as (source rank, destination
	// rank) under the domain ordering of T_o — the structure-level
	// description the detector memorizes.
	RankEdges [][2]int

	Tries int // number of root selections used
}

// Embed adds a single local scheduling watermark to g (temporal edges are
// inserted into g in place; clone first if the original must be kept).
func Embed(g *cdfg.Graph, sig prng.Signature, cfg Config) (*Watermark, error) {
	wms, err := EmbedMany(g, sig, cfg, 1)
	if err != nil {
		return nil, err
	}
	return wms[0], nil
}

// EmbedMany embeds up to n independent local watermarks for the same
// signature, each in its own pseudo-randomly chosen locality — the
// paper's core idea ("rather than embedding a single error-corrected
// watermark over the entire design ... a number of 'small' watermarks are
// randomly augmented"). It returns the watermarks that embedded
// successfully; an error is returned only when none could be placed.
// Successive watermarks see the temporal edges of earlier ones, so the
// combined constraint set is always consistent (acyclic, non-duplicate).
func EmbedMany(g *cdfg.Graph, sig prng.Signature, cfg Config, n int) ([]*Watermark, error) {
	if n <= 0 {
		return nil, fmt.Errorf("schedwm: non-positive watermark count %d", n)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	master, err := prng.NewBitstream(sig)
	if err != nil {
		return nil, err
	}
	an, err := Prepare(g, cfg)
	if err != nil {
		// The analyses are watermark-independent, so a failure here is the
		// failure every index would have hit.
		return nil, fmt.Errorf("schedwm: embedded 0 of %d watermarks: %v", n, err)
	}
	var eligible []cdfg.NodeID // listed on the first draw; commits add temporal edges only
	nextRoot := func() (cdfg.NodeID, error) {
		if cfg.Root != nil {
			return *cfg.Root, nil
		}
		if eligible == nil {
			eligible = domain.EligibleRoots(g)
		}
		return domain.PickFrom(eligible, master)
	}
	var out []*Watermark
	var lastErr error
	for idx := 0; idx < n; idx++ {
		wm, err := embedOne(g, an, nextRoot, sig, cfg, idx)
		if err != nil {
			lastErr = err
			continue
		}
		if err := commitEdges(g, wm); err != nil {
			return nil, err
		}
		out = append(out, wm)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("schedwm: embedded 0 of %d watermarks: %v", n, lastErr)
	}
	return out, nil
}

// Analyses bundles the watermark-independent scheduling analyses embedding
// consults: they depend on the nodes and the data/control edges only, never
// on temporal (watermark) edges, so one Analyses serves every watermark of
// an EmbedMany run.
type Analyses struct {
	Budget  int            // control-step budget (resolved from cfg or critical path)
	CPSteps int            // unit-step critical path
	CP      int            // weighted critical path under cfg.OpWeight
	Lax     []int          // per-node laxities under cfg.OpWeight; shared with the PathOracle, read-only
	Windows *sched.Windows // ASAP/ALAP lifetime windows for Budget
	// UnitW is the weight of the unit operation realizing a temporal edge;
	// StretchBound the longest weighted path such an edge may create;
	// LaxityBound the ε-derived eligibility cutoff.
	UnitW        int
	StretchBound int
	LaxityBound  float64
}

// Prepare computes the shared analyses for cfg (normalized internally; the
// call is idempotent). The graph's temporal edges do not influence the
// result, so the values remain valid while watermarks accumulate.
func Prepare(g *cdfg.Graph, cfg Config) (*Analyses, error) {
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
	// Every analysis below comes from the graph's PathOracle: the unit-step
	// and weighted ones share its structural entry when OpWeight is nil,
	// and a caller that already asked for the critical path (as the family
	// layer does to default the budget) finds them computed.
	o := g.Oracle()
	cpSteps, err := o.CriticalPathW(nil)
	if err != nil {
		return nil, err
	}
	if budget < cpSteps {
		return nil, fmt.Errorf("schedwm: budget %d below critical path %d", budget, cpSteps)
	}
	// Eligibility is judged under the configured weighting (unit steps by
	// default, machine cycles when OpWeight is set).
	cp, err := o.CriticalPathW(cfg.OpWeight)
	if err != nil {
		return nil, err
	}
	lax, err := o.LaxitiesW(cfg.OpWeight)
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

// commitEdges inserts the watermark's temporal edges into g — the mutation
// embedding performs once a watermark is accepted — and verifies the graph
// stayed acyclic.
func commitEdges(g *cdfg.Graph, wm *Watermark) error {
	for _, e := range wm.Edges {
		if err := g.AddEdge(e.From, e.To, cdfg.TemporalEdge); err != nil {
			return fmt.Errorf("schedwm: adding edge: %v", err)
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return fmt.Errorf("schedwm: internal: watermark created a cycle: %v", err)
	}
	return nil
}

// embedOne places the idx-th local watermark. The root for each try comes
// from nextRoot: the pinned root, or the next pick from the master stream.
// The watermark is returned without mutating g; the caller commits its
// edges (commitEdges).
func embedOne(g *cdfg.Graph, an *Analyses, nextRoot func() (cdfg.NodeID, error), sig prng.Signature, cfg Config, idx int) (*Watermark, error) {
	// Weighted longest paths for the no-stretch test: an accepted edge
	// n_i -> n_k (realized as a unit op between them) must not create a
	// path longer than the design's weighted critical path, so the
	// watermark can never become the timing bottleneck. Temporal edges
	// from earlier watermarks participate: stretch compounds across
	// constraints, so each new edge is judged against the paths the
	// previous ones already created. The oracle memoizes the computation,
	// which repeats verbatim for every watermark embedded between commits.
	toW, fromW, err := g.Oracle().TemporalWeighted(cfg.OpWeight, an.UnitW)
	if err != nil {
		return nil, err
	}
	sc := new(scratch)
	var lastErr error
	for try := 1; try <= cfg.MaxTries; try++ {
		root, err := nextRoot()
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
		wm, err := encode(g, d, ds, cfg, encodeEnv{
			lax:          an.Lax,
			laxityBound:  an.LaxityBound,
			windows:      an.Windows,
			toW:          toW,
			fromW:        fromW,
			weight:       cfg.OpWeight,
			stretchBound: an.StretchBound,
			unitW:        an.UnitW,
			sc:           sc,
		})
		if err != nil {
			lastErr = err
			continue
		}
		wm.Signature = append(prng.Signature(nil), sig...)
		wm.Config = cfg
		wm.Index = idx
		wm.RootFP = domain.RootFingerprint(g, root)
		wm.Tries = try
		return wm, nil
	}
	return nil, fmt.Errorf("schedwm: no eligible locality after %d tries (τ'=%d, K=%d): %v",
		cfg.MaxTries, cfg.TauPrime, cfg.K, lastErr)
}

// encodeEnv carries the precomputed analyses encode consults.
type encodeEnv struct {
	lax          []int
	laxityBound  float64
	windows      *sched.Windows
	toW, fromW   []int           // weighted longest paths (no-stretch test)
	weight       cdfg.WeightFunc // the weighting toW/fromW were built with
	stretchBound int             // longest weighted path an edge may create
	unitW        int             // weight of the realizing unit operation
	sc           *scratch
}

// scratch is the reusable working storage of one embedding: the walk of
// the cycle and implication tests and the buffers of the per-edge
// weighted-path refresh.
type scratch struct {
	reach cdfg.Reach
	paths cdfg.PathScratch
}

// encode performs steps 2–9 of the Fig. 2 pseudocode on a selected domain.
func encode(g *cdfg.Graph, d *domain.Domain, bs *prng.Bitstream, cfg Config, env encodeEnv) (*Watermark, error) {
	w := env.windows
	// Step 2–4: T' = nodes of T that are computational, sufficiently
	// off-critical, and lifetime-overlapping with some other such node.
	var loose []cdfg.NodeID
	for _, v := range d.T {
		if !g.Node(v).Op.IsComputational() {
			continue
		}
		if !cfg.AllEligible && float64(env.lax[v]) > env.laxityBound {
			continue
		}
		loose = append(loose, v)
	}
	var tprime []cdfg.NodeID
	for _, v := range loose {
		for _, u := range loose {
			if u != v && w.Overlaps(v, u) {
				tprime = append(tprime, v)
				break
			}
		}
	}
	if len(tprime) < cfg.TauPrime {
		return nil, fmt.Errorf("schedwm: |T'| = %d < τ' = %d at root %s",
			len(tprime), cfg.TauPrime, g.Node(d.Root).Name)
	}
	// Canonical order for unambiguous bit consumption.
	tprime = sortByRank(tprime, d.To)

	// Step 5: pseudo-random ordering of T'. The protocol walks this
	// ordered selection T'' and keeps drawing edges "until all K temporal
	// edges are drawn", so the selection is taken as long as needed (up to
	// the whole eligible set) rather than exactly K nodes.
	idx := bs.Select(len(tprime), len(tprime))
	tsel := make([]cdfg.NodeID, len(tprime))
	for i, j := range idx {
		tsel[i] = tprime[j]
	}

	// Steps 6–9: for each n_i in T'' (in selection order), pick one
	// overlapping later member n_k and draw the temporal edge n_i -> n_k,
	// stopping once K edges exist.
	wm := &Watermark{Root: d.Root, Domain: d, TPrime: tprime, TSel: tsel}
	for i, ni := range tsel {
		if len(wm.Edges) >= cfg.K {
			break
		}
		var cands []cdfg.NodeID
		for j := i + 1; j < len(tsel); j++ {
			nj := tsel[j]
			if !w.Overlaps(ni, nj) {
				continue
			}
			// The enforced direction must be schedulable: n_i strictly
			// before n_j is possible only if n_i's earliest step precedes
			// n_j's latest one.
			if w.ASAP[ni] >= w.ALAP[nj] {
				continue
			}
			// Informativeness filter: keep only pairs whose enforced order
			// is unlikely by chance.
			if cfg.MaxOrderProb > 0 && cfg.MaxOrderProb < 1 {
				p, err := stats.OrderProb(w.ASAP[ni], w.ALAP[ni], w.ASAP[nj], w.ALAP[nj])
				if err != nil {
					return nil, err
				}
				if p > cfg.MaxOrderProb {
					continue
				}
			}
			// The realized constraint (a unit op between the pair) must
			// not stretch the weighted critical path: the watermark stays
			// free in the timing sense.
			if env.toW[ni]+env.unitW+env.fromW[nj] > env.stretchBound {
				continue
			}
			// A temporal edge ni->nj must not create a cycle with existing
			// precedence (or previously drawn watermark edges).
			if env.sc.reach.Path(g, wm.Edges, nj, ni) {
				continue
			}
			// Skip pairs already ordered by the specification: the edge
			// would be implied and carry no evidence.
			if env.sc.reach.Path(g, wm.Edges, ni, nj) {
				continue
			}
			cands = append(cands, nj)
		}
		if len(cands) == 0 {
			continue // this n_i contributes no edge; K shrinks below target
		}
		nk := cands[bs.Intn(len(cands))]
		wm.Edges = append(wm.Edges, cdfg.Edge{From: ni, To: nk, Kind: cdfg.TemporalEdge})
		ri, _ := d.Order.Rank(ni)
		rk, _ := d.Order.Rank(nk)
		wm.RankEdges = append(wm.RankEdges, [2]int{ri, rk})
		// Refresh the weighted paths so the no-stretch test sees the
		// accumulated effect of the edges drawn so far.
		toW, fromW, err := g.WeightedLongest(&env.sc.paths, env.weight, env.unitW, wm.Edges)
		if err != nil {
			return nil, err
		}
		env.toW, env.fromW = toW, fromW
	}
	if len(wm.Edges) == 0 {
		return nil, fmt.Errorf("schedwm: selection produced no drawable temporal edge at root %s",
			g.Node(d.Root).Name)
	}
	return wm, nil
}

// sortByRank returns nodes, members of the rank-ordered list ordered,
// stably sorted by rank: a node listed twice (T lists a value twice when
// its consumer reads it on two input slots) stays listed twice. ordered
// is shared (domain.Domain.To) and only read.
func sortByRank(nodes, ordered []cdfg.NodeID) []cdfg.NodeID {
	out := make([]cdfg.NodeID, 0, len(nodes))
	for _, v := range ordered {
		for _, u := range nodes {
			if u == v {
				out = append(out, u)
			}
		}
	}
	return out
}

// ApproxPc estimates the solution-coincidence probability of the watermark
// on graph g: the probability that an independently produced schedule
// satisfies every added temporal constraint by accident. Following the
// paper's first-order model, each edge contributes the probability that a
// uniform placement of source and destination in their unconstrained
// ASAP–ALAP windows orders them correctly, and edges are treated as
// independent.
func ApproxPc(g *cdfg.Graph, wm *Watermark, budget int) (stats.LogProb, error) {
	if budget == 0 {
		var err error
		budget, err = sched.MinBudget(g, false)
		if err != nil {
			return 0, err
		}
	}
	w, err := sched.ComputeWindows(g, budget, false)
	if err != nil {
		return 0, err
	}
	pc := stats.LogProb(0)
	for _, e := range wm.Edges {
		p, err := stats.OrderProb(w.ASAP[e.From], w.ALAP[e.From], w.ASAP[e.To], w.ALAP[e.To])
		if err != nil {
			return 0, err
		}
		pc = pc.Mul(stats.FromProb(p))
	}
	return pc, nil
}

// ExactPc computes the exact coincidence probability by exhaustive
// enumeration: the number of feasible schedules satisfying the watermark
// constraints divided by the total number of feasible schedules. Only
// viable for small designs (see sched.EnumLimit).
func ExactPc(g *cdfg.Graph, budget int) (withWM, total uint64, err error) {
	total, err = sched.Count(g, budget, false)
	if err != nil {
		return 0, 0, err
	}
	withWM, err = sched.Count(g, budget, true)
	if err != nil {
		return 0, 0, err
	}
	return withWM, total, nil
}

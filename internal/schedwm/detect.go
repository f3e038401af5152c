package schedwm

import (
	"fmt"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/stats"
)

// Record is the structure-level description of an embedded watermark that
// the author memorizes for later copy detection. It names no node IDs:
// every reference is a rank under the canonical domain ordering, so the
// record can be checked against any suspect design, including one where
// the marked core was cropped out or embedded into a larger system.
type Record struct {
	Signature prng.Signature
	// Index is the watermark's position in its signature's embedding
	// sequence, and Try the placement attempt that succeeded; together
	// they key the domain sub-stream.
	Index     int
	Try       int
	DomainCfg domain.Config
	TLen      int      // |T| the embedder obtained
	RankEdges [][2]int // temporal constraints as (src rank, dst rank)
	// RootFP is the root's structural fingerprint; detection uses it to
	// skip non-matching candidate roots cheaply.
	RootFP string
}

// Record extracts the detector-facing record from an embedding result.
func (wm *Watermark) Record() Record {
	return Record{
		Signature: append(prng.Signature(nil), wm.Signature...),
		Index:     wm.Index,
		Try:       wm.Tries,
		DomainCfg: wm.Config.Domain,
		TLen:      len(wm.Domain.T),
		RankEdges: append([][2]int(nil), wm.RankEdges...),
		RootFP:    wm.RootFP,
	}
}

// Candidate is the per-root outcome of a detection sweep.
type Candidate struct {
	Root      cdfg.NodeID
	Satisfied int           // constraints the suspect schedule satisfies
	Total     int           // constraints that could be mapped at this root
	Pc        stats.LogProb // chance probability of the observed agreement
	Nodes     []cdfg.NodeID // mapped constraint endpoints (diagnostics)
}

// Detection is the result of scanning a suspect design.
type Detection struct {
	// Found is true if some root satisfies every memorized constraint.
	Found bool
	// Best is the candidate with the most satisfied constraints (ties:
	// lowest Pc). Meaningful even when Found is false, for forensics.
	Best Candidate
	// Matches lists every root at which all constraints are satisfied;
	// localities can be re-discovered at several symmetric positions.
	Matches []Candidate
	// RootsTried counts candidate roots examined.
	RootsTried int
}

// Detect scans every node of the suspect graph as a potential watermark
// root, re-derives the domain walk from the signature (the walk depends
// only on the signature and the local fan-in structure), maps the
// memorized rank-level constraints onto concrete nodes, and checks them
// against the suspect schedule. The suspect graph's own temporal edges, if
// any, are ignored — only the schedule order matters, because a thief
// ships a scheduled design, not the constraints that shaped it.
//
// The returned Pc is the probability that an independent schedule
// satisfies the matched constraints by coincidence (first-order window
// model). Because the detector scans every candidate root, a match's
// effective evidence must be discounted by the number of roots tried
// (multiple testing): treat the proof as convincing only when
// Pc · RootsTried is still negligible. Watermarks embedded with realistic
// K make this discount irrelevant; adjudication of contested claims
// should additionally use VerifyOwnership.
func Detect(g *cdfg.Graph, s *sched.Schedule, rec Record) (*Detection, error) {
	if len(rec.RankEdges) == 0 {
		return nil, fmt.Errorf("schedwm: record carries no constraints")
	}
	if len(s.Steps) != g.Len() {
		return nil, fmt.Errorf("schedwm: schedule covers %d nodes, graph has %d", len(s.Steps), g.Len())
	}
	budget := s.Budget
	if budget < s.Makespan() {
		budget = s.Makespan()
	}
	w, err := sched.ComputeWindows(g, budget, false)
	if err != nil {
		return nil, err
	}

	det := &Detection{}
	haveBest := false
	var fp []byte // reused: the fingerprint test allocates nothing per root
	for _, root := range g.Computational() {
		// Roots without computational fan-in cannot host a domain.
		if !domain.Eligible(g, root) {
			continue
		}
		if rec.RootFP != "" {
			if fp = domain.AppendRootFingerprint(fp[:0], g, root); string(fp) != rec.RootFP {
				continue // cheap structural rejection
			}
		}
		det.RootsTried++

		ds, err := domainStream(rec.Signature, rec.Index, rec.Try)
		if err != nil {
			return nil, err
		}
		d, err := domain.Select(g, ds, root, rec.DomainCfg)
		if err != nil {
			continue // this root cannot host the domain; not an input error
		}
		if len(d.T) != rec.TLen {
			continue // locality shape differs; cheap rejection
		}
		cand := Candidate{Root: root, Pc: 0}
		ok := true
		for _, re := range rec.RankEdges {
			if re[0] >= len(d.To) || re[1] >= len(d.To) {
				ok = false
				break
			}
			src, dst := d.To[re[0]], d.To[re[1]]
			if s.Steps[src] == 0 || s.Steps[dst] == 0 {
				ok = false
				break
			}
			cand.Total++
			cand.Nodes = append(cand.Nodes, src, dst)
			if s.Steps[src] < s.Steps[dst] {
				cand.Satisfied++
				p, err := stats.OrderProb(w.ASAP[src], w.ALAP[src], w.ASAP[dst], w.ALAP[dst])
				if err != nil {
					return nil, err
				}
				cand.Pc = cand.Pc.Mul(stats.FromProb(p))
			}
		}
		if !ok || cand.Total == 0 {
			continue
		}
		if cand.Satisfied == len(rec.RankEdges) && cand.Total == len(rec.RankEdges) {
			det.Matches = append(det.Matches, cand)
		}
		if better(cand, det.Best, haveBest) {
			det.Best = cand
			haveBest = true
		}
	}
	det.Found = len(det.Matches) > 0
	return det, nil
}

// Convincing reports whether a detection's evidence survives the
// multiple-testing discount: the coincidence probability of the best
// match, multiplied by the number of candidate roots the scan considered,
// must stay below alpha. Use it whenever a Found result backs an actual
// accusation; a watermark with realistic K passes easily, while a lucky
// two-constraint match against hundreds of roots does not.
func (d *Detection) Convincing(alpha float64) bool {
	if !d.Found || alpha <= 0 {
		return false
	}
	roots := d.RootsTried
	if roots < 1 {
		roots = 1
	}
	return d.Best.Pc.Prob()*float64(roots) < alpha
}

// VerifyOwnership adjudicates a claim that sig marked the scheduled design
// (g, s): it repeats the marking process on g with the claimed signature
// and configuration — the paper's detection procedure, "the marking
// process is repeated with a modification that constraints are only
// verified" — and checks every re-derived temporal constraint against the
// suspect schedule. n is the number of local watermarks the claimant says
// were embedded. Unlike Detect, nothing is trusted beyond the signature
// and the public configuration.
func VerifyOwnership(g *cdfg.Graph, s *sched.Schedule, sig prng.Signature,
	cfg Config, n int) (*Detection, error) {
	if len(s.Steps) != g.Len() {
		return nil, fmt.Errorf("schedwm: schedule covers %d nodes, graph has %d", len(s.Steps), g.Len())
	}
	// Re-derive on a clone: Embed inserts temporal edges, and the suspect
	// graph must stay pristine. Node IDs are preserved by Clone.
	wms, err := EmbedMany(g.Clone(), sig, cfg, n)
	if err != nil {
		return nil, fmt.Errorf("schedwm: re-deriving constraints: %v", err)
	}
	return CheckConstraints(g, s, wms)
}

// CheckConstraints is the verification half of VerifyOwnership: it checks
// the temporal constraints of re-derived watermarks against the suspect
// schedule. Split out so a caller that re-derives the watermarks itself
// (EmbedMany on a clone) scores them identically.
func CheckConstraints(g *cdfg.Graph, s *sched.Schedule, wms []*Watermark) (*Detection, error) {
	budget := s.Budget
	if budget < s.Makespan() {
		budget = s.Makespan()
	}
	w, err := sched.ComputeWindows(g, budget, false)
	if err != nil {
		return nil, err
	}
	det := &Detection{RootsTried: len(wms)}
	cand := Candidate{Root: cdfg.None}
	for _, wm := range wms {
		for _, e := range wm.Edges {
			cand.Total++
			cand.Nodes = append(cand.Nodes, e.From, e.To)
			if s.Steps[e.From] != 0 && s.Steps[e.To] != 0 && s.Steps[e.From] < s.Steps[e.To] {
				cand.Satisfied++
				p, err := stats.OrderProb(w.ASAP[e.From], w.ALAP[e.From], w.ASAP[e.To], w.ALAP[e.To])
				if err != nil {
					return nil, err
				}
				cand.Pc = cand.Pc.Mul(stats.FromProb(p))
			}
		}
	}
	det.Best = cand
	if cand.Total > 0 && cand.Satisfied == cand.Total {
		det.Found = true
		det.Matches = []Candidate{cand}
	}
	return det, nil
}

func better(a, b Candidate, haveB bool) bool {
	if !haveB {
		return true
	}
	if a.Satisfied != b.Satisfied {
		return a.Satisfied > b.Satisfied
	}
	return a.Pc < b.Pc
}

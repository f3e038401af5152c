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

// Record is the detector-facing description of a template-matching
// watermark: the signature, the domain configuration, and the enforced
// matchings in rank space. No node IDs.
type Record struct {
	Signature    prng.Signature
	WholeGraph   bool
	DomainCfg    domain.Config
	Index        int    // watermark index within the signature's sequence
	Try          int    // successful placement attempt (keys the walk)
	TLen         int    // |T| in domain mode (cheap root rejection)
	RootFP       string // root fingerprint in domain mode (cheap rejection)
	RankEnforced []RankMatching
}

// Record extracts the detection record from an embedding result.
func (wm *Watermark) Record() Record {
	r := Record{
		Signature:    append(prng.Signature(nil), wm.Signature...),
		WholeGraph:   wm.Config.WholeGraph,
		DomainCfg:    wm.Config.Domain,
		RankEnforced: append([]RankMatching(nil), wm.RankEnforced...),
	}
	if !wm.Config.WholeGraph {
		r.Index = wm.Index
		r.Try = wm.Tries
		r.TLen = len(wm.Order.Ordered) // |T_o| ordering length in domain mode
		r.RootFP = wm.RootFP
	}
	return r
}

// Detection is the result of checking a suspect covering.
type Detection struct {
	Found      bool
	Matched    int // enforced matchings present in the suspect cover
	Total      int // enforced matchings in the record
	Pc         stats.LogProb
	Root       cdfg.NodeID // root at which the match was found (domain mode)
	RootsTried int
}

// Detect checks whether the suspect covering carries the recorded
// watermark. In whole-graph mode the global canonical ordering of the
// suspect graph maps ranks to nodes directly; in domain mode every
// candidate root is tried, re-deriving the domain walk from the signature
// exactly as the embedder did.
//
// Trust model: Detect takes the record at face value, which is the right
// tool for *finding* a known watermark inside a modified or embedding
// design (the record must have been deposited — e.g. timestamped with a
// notary — at marking time). To *adjudicate* an ownership claim on an
// intact design, use VerifyOwnership, which re-derives the constraints
// from the claimed signature instead of trusting a proffered record.
//
// A recorded matching counts as present when the suspect cover contains a
// matching with the same template and the same node binding. Pc
// aggregates 1/Solutions(m) over the matchings found — the probability an
// independent mapping run instantiates them all by coincidence.
func Detect(g *cdfg.Graph, lib *tmatch.Library, cover *tmatch.Cover, rec Record) (*Detection, error) {
	if len(rec.RankEnforced) == 0 {
		return nil, fmt.Errorf("tmwm: record carries no enforced matchings")
	}
	inCover := map[string]bool{}
	for _, m := range cover.Matchings {
		inCover[m.Key()] = true
	}

	check := func(ord *order.Result) (*Detection, error) {
		det := &Detection{Total: len(rec.RankEnforced)}
		for _, rm := range rec.RankEnforced {
			m := tmatch.Matching{Template: rm.Template}
			ok := true
			for _, r := range rm.Ranks {
				if r < 0 || r >= len(ord.Ordered) {
					ok = false
					break
				}
				m.Nodes = append(m.Nodes, ord.Ordered[r])
			}
			if !ok || !inCover[m.Key()] {
				continue
			}
			det.Matched++
			n, err := tmatch.CountCoverings(g, lib, tmatch.Constraints{}, m.Nodes)
			if err != nil {
				return nil, err
			}
			det.Pc = det.Pc.Mul(stats.FromRatio(1, float64(n)))
		}
		det.Found = det.Matched == det.Total
		return det, nil
	}

	if rec.WholeGraph {
		ord, err := order.Global(g, 0)
		if err != nil {
			return nil, err
		}
		det, err := check(ord)
		if err != nil {
			return nil, err
		}
		det.Root = cdfg.None
		det.RootsTried = 1
		return det, nil
	}

	return detectDomainMode(g, lib, rec, check)
}

// VerifyOwnership adjudicates a claim that sig marked the covering of g:
// it repeats the marking process on g with the claimed signature and
// configuration ("during the detection process, the marking process is
// repeated with a modification that constraints are only verified") and
// checks that every derived enforced matching is instantiated by the
// suspect cover. Unlike Detect, nothing from the claimant is trusted
// beyond the signature and public configuration.
func VerifyOwnership(g *cdfg.Graph, lib *tmatch.Library, cover *tmatch.Cover,
	sig prng.Signature, cfg Config) (*Detection, error) {
	cfg.Lib = lib
	wm, err := Embed(g, sig, cfg) // pure derivation; g is not modified
	if err != nil {
		return nil, fmt.Errorf("tmwm: re-deriving constraints: %v", err)
	}
	inCover := map[string]bool{}
	for _, m := range cover.Matchings {
		inCover[m.Key()] = true
	}
	det := &Detection{Total: len(wm.Enforced), Root: wm.Root, RootsTried: 1}
	for _, m := range wm.Enforced {
		if !inCover[m.Key()] {
			continue
		}
		det.Matched++
		n, err := tmatch.CountCoverings(g, lib, tmatch.Constraints{}, m.Nodes)
		if err != nil {
			return nil, err
		}
		det.Pc = det.Pc.Mul(stats.FromRatio(1, float64(n)))
	}
	det.Found = det.Matched == det.Total
	return det, nil
}

func detectDomainMode(g *cdfg.Graph, lib *tmatch.Library, rec Record,
	check func(*order.Result) (*Detection, error)) (*Detection, error) {
	best := &Detection{Total: len(rec.RankEnforced), Root: cdfg.None}
	var fpm *domain.FingerprintMatcher
	if rec.RootFP != "" {
		fpm = domain.NewFingerprintMatcher(rec.RootFP)
	}
	// Key the walk sub-stream once, at the first root that needs it, and
	// replay a clone per root (see schedwm.Detect).
	var stream *prng.Bitstream
	for root := cdfg.NodeID(0); int(root) < g.Len(); root++ {
		if !domain.Eligible(g, root) {
			continue
		}
		if fpm != nil && !fpm.Match(g, root) {
			continue // cheap structural rejection
		}
		best.RootsTried++
		if stream == nil {
			var err error
			if stream, err = domainStream(rec.Signature, rec.Index, rec.Try); err != nil {
				return nil, err
			}
		}
		d, err := domain.Select(g, stream.Clone(), root, rec.DomainCfg)
		if err != nil {
			continue
		}
		if rec.TLen != 0 && len(d.Order.Ordered) != rec.TLen {
			continue
		}
		det, err := check(d.Order)
		if err != nil {
			return nil, err
		}
		if det.Matched > best.Matched || (det.Matched == best.Matched && det.Pc < best.Pc) {
			tried := best.RootsTried
			best = det
			best.Root = root
			best.RootsTried = tried
		}
		if best.Found {
			break
		}
	}
	return best, nil
}

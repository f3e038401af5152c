// Package family is the protocol seam that turns the daemon into the
// paper's actual abstraction: one embed/detect/verify lifecycle
// instantiated per synthesis task. A Protocol adapts one watermark
// family — scheduling (internal/schedwm), template matching
// (internal/tmwm + internal/tmatch), graph coloring (internal/gcolor) —
// to a family-neutral surface over the lwmapi wire types: parse a
// family-typed design from its canonical text, normalize parameters,
// embed, parse a suspect solution, detect, verify. Every family's Detect
// runs one loop (fanout.go) that fans the suspect×record grid out on the
// worker pool, RunPool; a family supplies only its per-pair scan.
//
// internal/server dispatches every /v1 request through the registry here
// instead of calling a family's package directly; internal/store uses
// the same codecs to canonicalize and parse registered designs; cmd/lwm
// drives the identical Protocol methods for its offline mode, which is
// what makes local CLI output byte-identical to daemon answers for every
// family.
//
// Error discipline: Protocol methods return errors whose text is exactly
// what the daemon's 400 envelope should carry ("embedding: …",
// "design: …", "verifying: …") — the server wraps them without
// re-phrasing, so the scheduling family's messages are byte-identical to
// the pre-family daemon's.
package family

import (
	"context"
	"fmt"
	"sort"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/obs"
	"localwm/lwmapi"
)

// Design is a parsed, family-typed design artifact.
type Design interface {
	// Family names the owning protocol.
	Family() string
	// Canonical renders the design's canonical text — the bytes the
	// content-addressed registry hashes. Write∘Parse is the identity on
	// canonical text.
	Canonical() string
	// Nodes is the design's node (vertex) count.
	Nodes() int
	// Clone returns a deep, privately owned copy, safe to mutate.
	Clone() Design
}

// Solution is a parsed, family-typed synthesis solution: a schedule, a
// template cover, or a coloring. Opaque outside the owning protocol.
type Solution any

// Suspect pairs a design with a suspect solution for detection and
// verification.
type Suspect struct {
	Design   Design
	Solution Solution
	// Shared marks the design as the registry's resident copy: read-only
	// by contract, never mutated or hooked with ObserveGraph.
	Shared bool
}

// Caps mirrors lwmapi.FamilyCaps for in-process dispatch decisions.
type Caps = lwmapi.FamilyCaps

// Protocol is one watermark family's lifecycle. Implementations are
// stateless and safe for concurrent use; all determinism contracts
// (byte-identical results at any worker count) hold per method.
type Protocol interface {
	// Name is the family's wire name.
	Name() string
	// Info describes the family for GET /v1/families.
	Info() lwmapi.FamilyInfo
	// Normalize fills the family's defaults for zero-valued params,
	// exactly as the lwm CLI defaults them.
	Normalize(p *lwmapi.MarkParams)
	// ParseDesign parses the family's design text. The error text is
	// field-free; callers prefix the field name.
	ParseDesign(text string) (Design, error)
	// ParseSolution parses a suspect solution against its design. The
	// error text is field-free; callers prefix the field name.
	ParseSolution(d Design, text string) (Solution, error)
	// Embed embeds params.N watermarks derived from sig into a privately
	// owned design (callers clone registry copies first). Embedding is
	// sequential in every family; workers is ignored.
	Embed(ctx context.Context, d Design, sig string, params lwmapi.MarkParams, workers int) (*lwmapi.EmbedResponse, error)
	// Detect scans every record in every suspect, fanning the
	// suspect×record pairs out on up to workers goroutines. Per-pair
	// failures land in the outcome's Error field; only request-level
	// failures error.
	Detect(ctx context.Context, suspects []Suspect, records []lwmapi.Record, workers int) (*lwmapi.DetectResponse, error)
	// Verify adjudicates an ownership claim by re-deriving params.N
	// watermarks from sig and checking them against the suspect. Like
	// Embed it is sequential; workers is ignored.
	Verify(ctx context.Context, sp Suspect, sig string, params lwmapi.MarkParams, workers int) (*lwmapi.VerifyResponse, error)
}

// registry holds every served family, keyed by wire name.
var registry = map[string]Protocol{
	lwmapi.FamilySched:  schedFamily{},
	lwmapi.FamilyTmwm:   tmwmFamily{},
	lwmapi.FamilyGcolor: gcolorFamily{},
}

// Lookup resolves a wire family name ("" means sched) to its protocol.
func Lookup(name string) (Protocol, error) {
	canonical := lwmapi.CanonicalFamily(name)
	p, ok := registry[canonical]
	if !ok {
		return nil, fmt.Errorf("family %q: unknown (have %v)", name, Names())
	}
	return p, nil
}

// Names lists the registered families, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Infos lists every family's discovery info, sorted by name.
func Infos() []lwmapi.FamilyInfo {
	out := make([]lwmapi.FamilyInfo, 0, len(registry))
	for _, name := range Names() {
		out = append(out, registry[name].Info())
	}
	return out
}

// CDFG unwraps a design's cdfg graph for the cdfg-backed families (sched
// and tmwm); ok is false for designs of other families.
func CDFG(d Design) (*cdfg.Graph, bool) {
	gd, ok := d.(interface{ CDFG() *cdfg.Graph })
	if !ok {
		return nil, false
	}
	return gd.CDFG(), true
}

// ObserveGraph bridges a request-scoped graph's PathOracle recompute
// events into the request trace as "oracle.<kind>" spans. A no-op
// (observer never registered) when the request is untraced. Only ever
// called on privately owned graphs — parsed from a request body or
// cloned from the registry — never on a shared store copy: the observer
// field is unsynchronized and would leak one request's trace into
// another's.
func ObserveGraph(ctx context.Context, g *cdfg.Graph) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return
	}
	parent := obs.CurrentSpan(ctx)
	g.OnPathRecompute(func(kind string, start time.Time, elapsed time.Duration) {
		tr.Record(parent, "oracle."+kind, start, elapsed)
	})
}

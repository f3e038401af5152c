// Package lwmapi is the wire contract of the lwmd watermarking service:
// the JSON request/response envelopes of every /v1 endpoint, the design
// registry types, the watermark-family discovery types, and the typed
// error envelope. Both sides of the wire — internal/server on the daemon
// and lwmclient on the caller — import these types, so the contract
// cannot drift between them.
//
// The envelopes are family-polymorphic: every request that names a design
// carries an optional "family" field selecting the watermark family
// (FamilySched, FamilyTmwm, FamilyGcolor), with the empty string meaning
// FamilySched. Designs, solutions, and records are family-typed text
// artifacts riding the same fields for every family — a design is cdfg
// text for sched and tmwm and gcolor graph text for gcolor; the
// Schedule field carries a schedule, a template cover, or a coloring; a
// Record's family-specific fields are omitempty extensions of the
// scheduling record.
//
// Compatibility: the field set and JSON names of the embed/detect/verify
// envelopes are frozen to the shapes the PR-4 daemon served (see
// wire_test.go, which round-trips captured fixtures). New capability
// arrives only as optional fields — design_ref alongside design, family
// alongside both — so a client that has never heard of the design
// registry or of non-scheduling families keeps working unchanged, and an
// old payload decodes identically on a new daemon.
package lwmapi

import (
	"localwm/internal/domain"
	"localwm/internal/gcolor"
	"localwm/internal/prng"
	"localwm/internal/schedwm"
	"localwm/internal/tmwm"
)

// APIKeyHeader carries the tenant API key on every /v1 request to a
// daemon running with a tenants file. The daemon also accepts the same
// key as an "Authorization: Bearer" token; a daemon with no tenants file
// ignores the header entirely.
const APIKeyHeader = "X-Lwm-Api-Key"

// RankMatching is a template matching in rank space, as tmwm records
// describe enforced matchings.
type RankMatching = tmwm.RankMatching

// Record is the detector-facing watermark record, exactly as the lwm CLI
// writes it and the lwmd service consumes it. The leading fields are the
// scheduling-family record, byte-for-byte as PR 4 served it (schedwm
// marshals with Go field names); the omitempty tail carries the fields
// the other families need, silent when unused, so a scheduling record's
// JSON is unchanged by the multi-family redesign.
type Record struct {
	Signature prng.Signature
	Index     int
	Try       int
	DomainCfg domain.Config
	TLen      int
	RankEdges [][2]int
	RootFP    string

	// WholeGraph and RankEnforced belong to tmwm records: the protocol
	// applied with T = CDFG, and the enforced matchings in rank space.
	WholeGraph   bool           `json:",omitempty"`
	RankEnforced []RankMatching `json:",omitempty"`
	// Tau and RankPairs belong to gcolor records: the locality size and
	// the constrained vertex pairs in locality-rank space.
	Tau       int      `json:",omitempty"`
	RankPairs [][2]int `json:",omitempty"`
}

// Sched projects the record onto the scheduling family.
func (r Record) Sched() schedwm.Record {
	return schedwm.Record{
		Signature: r.Signature, Index: r.Index, Try: r.Try,
		DomainCfg: r.DomainCfg, TLen: r.TLen,
		RankEdges: r.RankEdges, RootFP: r.RootFP,
	}
}

// Tmwm projects the record onto the template-matching family.
func (r Record) Tmwm() tmwm.Record {
	return tmwm.Record{
		Signature: r.Signature, WholeGraph: r.WholeGraph,
		DomainCfg: r.DomainCfg, Index: r.Index, Try: r.Try,
		TLen: r.TLen, RootFP: r.RootFP, RankEnforced: r.RankEnforced,
	}
}

// Gcolor projects the record onto the graph-coloring family.
func (r Record) Gcolor() gcolor.Record {
	return gcolor.Record{Signature: r.Signature, Tau: r.Tau, RankPairs: r.RankPairs}
}

// FromSchedRecord wraps a scheduling record in the wire type.
func FromSchedRecord(rec schedwm.Record) Record {
	return Record{
		Signature: rec.Signature, Index: rec.Index, Try: rec.Try,
		DomainCfg: rec.DomainCfg, TLen: rec.TLen,
		RankEdges: rec.RankEdges, RootFP: rec.RootFP,
	}
}

// FromTmwmRecord wraps a template-matching record in the wire type.
func FromTmwmRecord(rec tmwm.Record) Record {
	return Record{
		Signature: rec.Signature, WholeGraph: rec.WholeGraph,
		DomainCfg: rec.DomainCfg, Index: rec.Index, Try: rec.Try,
		TLen: rec.TLen, RootFP: rec.RootFP, RankEnforced: rec.RankEnforced,
	}
}

// FromGcolorRecord wraps a graph-coloring record in the wire type.
func FromGcolorRecord(rec gcolor.Record) Record {
	return Record{Signature: rec.Signature, Tau: rec.Tau, RankPairs: rec.RankPairs}
}

// SchedRecords projects a record slice onto the scheduling family.
func SchedRecords(recs []Record) []schedwm.Record {
	out := make([]schedwm.Record, len(recs))
	for i, r := range recs {
		out[i] = r.Sched()
	}
	return out
}

// MarkParams are the public embedding parameters shared by embed and
// verify requests. Zero values take the selected family's defaults
// (GET /v1/families lists them; for sched: n=2, τ=20, K=4, ε=0.25,
// budget = critical path + 10%). Each family reads the subset it uses —
// K is temporal edges for sched, enforced matchings Z for tmwm,
// constraint edges for gcolor.
type MarkParams struct {
	// N is the number of local watermarks.
	N int `json:"n"`
	// Tau is the locality cardinality τ.
	Tau int `json:"tau"`
	// K is the number of constraints per watermark.
	K int `json:"k"`
	// Epsilon is the laxity margin ε (sched and tmwm).
	Epsilon float64 `json:"epsilon"`
	// Budget is the control-step budget (sched and tmwm).
	Budget int `json:"budget"`
	// Workers is the fan-out width of a robustness campaign's unit grid
	// (0: server default, clamped to the daemon's configured maximum).
	// Embed and verify run sequentially and ignore it.
	Workers int `json:"workers"`
}

// EmbedRequest asks the service to embed watermarks. Exactly one of
// Design (inline family text) or DesignRef (a registry reference from
// PutDesign) identifies the design; when both are set the reference
// wins, and an unresolvable reference answers 404 CodeDesignNotFound —
// it never silently falls back to the inline text, so the caller can
// count misses and re-put.
type EmbedRequest struct {
	// Family selects the watermark family; empty means FamilySched. An
	// unknown name answers 400 CodeFamilyUnknown.
	Family string `json:"family,omitempty"`
	// Design is the design inline, in the family's text format.
	Design string `json:"design,omitempty"`
	// DesignRef is a content-addressed registry reference (the ref field
	// of a PutDesignResponse) standing in for the inline design. The
	// reference must have been put under the same family.
	DesignRef string `json:"design_ref,omitempty"`
	// Signature is the author signature the watermarks derive from.
	Signature string `json:"signature"`
	MarkParams
}

// EmbedResponse is the service's embed answer.
type EmbedResponse struct {
	// MarkedDesign is the constrained design, in the family's text
	// format: the temporal-edge-augmented cdfg for sched, the unmodified
	// design for tmwm (the watermark lives in the cover), the
	// constraint-edge-augmented instance for gcolor.
	MarkedDesign string `json:"marked_design"`
	// Watermarks is how many local watermarks were embedded.
	Watermarks int `json:"watermarks"`
	// TemporalEdges is the total count of embedded constraints: temporal
	// edges for sched, enforced matchings for tmwm, constraint edges for
	// gcolor. (The JSON name is frozen from the scheduling-only wire.)
	TemporalEdges int `json:"temporal_edges"`
	// Records are the detector-facing records, one per watermark.
	Records []Record `json:"records"`
	// MarkedSolution is the marked synthesis solution for families whose
	// watermark manifests in the solution rather than the design text: a
	// full template cover carrying the enforced matchings for tmwm, a
	// DSATUR coloring of the constrained instance for gcolor. Empty for
	// sched (schedule the marked design with any honoring scheduler).
	MarkedSolution string `json:"marked_solution,omitempty"`
}

// Suspect pairs a suspect design with its synthesis solution for batch
// detection. The design arrives inline (Design) or by registry reference
// (DesignRef); the reference wins when both are set. The family is a
// property of the whole DetectRequest, not of individual suspects.
type Suspect struct {
	// Design is the suspect design inline, in the family's text format.
	Design string `json:"design,omitempty"`
	// DesignRef is a content-addressed registry reference standing in
	// for the inline design.
	DesignRef string `json:"design_ref,omitempty"`
	// Schedule is the suspect solution in the family's text format: a
	// schedule for sched, a template cover for tmwm, a coloring for
	// gcolor. (The JSON name is frozen from the scheduling-only wire.)
	Schedule string `json:"schedule"`
}

// DetectRequest is one batch detection request as it travels on the
// wire: every record scanned in every suspect. (Client-side chunking
// lives above this type — each chunk is one DetectRequest.)
type DetectRequest struct {
	// Family selects the watermark family for every suspect and record
	// in the batch; empty means FamilySched.
	Family string `json:"family,omitempty"`
	// Suspects are the designs+solutions to scan.
	Suspects []Suspect `json:"suspects"`
	// Records are the detector-facing watermark records to scan for.
	Records []Record `json:"records"`
	// Workers is the fan-out width over suspect×record pairs (0: server
	// default, clamped to the daemon's configured maximum).
	Workers int `json:"workers"`
}

// DetectOutcome is one suspect×record detection verdict. Pc travels in
// the paper's 10^x notation.
type DetectOutcome struct {
	// Found reports whether the record's watermark was fully matched.
	Found bool `json:"found"`
	// Root is the matched root, when found: a node name for sched and
	// tmwm, a vertex number for gcolor.
	Root string `json:"root,omitempty"`
	// Satisfied and Total count the matched constraints of the best
	// candidate root.
	Satisfied int `json:"satisfied"`
	Total     int `json:"total"`
	// Pc is the coincidence probability of the best candidate, in the
	// paper's 10^x notation.
	Pc string `json:"pc"`
	// RootsTried is how many candidate roots the scan considered.
	RootsTried int `json:"roots_tried"`
	// Error carries a per-pair scan failure; the rest of the batch is
	// still meaningful.
	Error string `json:"error,omitempty"`
}

// DetectResponse is the service's batch detection answer.
type DetectResponse struct {
	// Results[i][j] is records[j] scanned in suspects[i], mirroring
	// engine.DetectBatch.
	Results [][]DetectOutcome `json:"results"`
	// Detected is the count of found verdicts across the grid.
	Detected int `json:"detected"`
}

// VerifyRequest asks the service to adjudicate an ownership claim from
// the claimed signature alone. The design arrives inline (Design) or by
// registry reference (DesignRef); the reference wins when both are set.
type VerifyRequest struct {
	// Family selects the watermark family; empty means FamilySched.
	Family string `json:"family,omitempty"`
	// Design is the suspect design inline, in the family's text format.
	Design string `json:"design,omitempty"`
	// DesignRef is a content-addressed registry reference standing in
	// for the inline design.
	DesignRef string `json:"design_ref,omitempty"`
	// Schedule is the suspect solution, in the family's text format (see
	// Suspect.Schedule).
	Schedule string `json:"schedule"`
	// Signature is the claimed author signature.
	Signature string `json:"signature"`
	MarkParams
}

// VerifyResponse is the service's verification verdict.
type VerifyResponse struct {
	// Verified reports whether every re-derived constraint held.
	Verified bool `json:"verified"`
	// Satisfied and Total count the re-derived constraints that held.
	Satisfied int `json:"satisfied"`
	Total     int `json:"total"`
	// Pc is the coincidence probability, in the paper's 10^x notation.
	Pc string `json:"pc"`
	// RootsTried is how many candidate roots the adjudication considered.
	RootsTried int `json:"roots_tried"`
}

// PutDesignRequest registers a design with the daemon's content-
// addressed registry (PUT /v1/designs).
type PutDesignRequest struct {
	// Family is the watermark family the design is registered under;
	// empty means FamilySched. References are family-salted: the same
	// text put under two families yields two distinct refs, and a ref
	// only resolves for requests of its own family.
	Family string `json:"family,omitempty"`
	// Design is the design to register, in the family's text format. It
	// is canonicalized (parsed and re-serialized) before hashing, so two
	// texts of the same graph — comments, blank lines, edge order —
	// yield the same reference.
	Design string `json:"design"`
}

// PutDesignResponse is the registry's answer to a put.
type PutDesignResponse struct {
	// Ref is the content-addressed reference: the lowercase hex SHA-256
	// of the canonical design text (family-salted for non-sched
	// families). Use it as the design_ref of embed/detect/verify
	// requests and in GET /v1/designs/{ref}.
	Ref string `json:"ref"`
	// Created is false when the design was already registered (the put
	// was a no-op refresh of its recency).
	Created bool `json:"created"`
	// Bytes is the canonical design text's size.
	Bytes int `json:"bytes"`
	// Nodes is the design's node count (graph vertices for gcolor).
	Nodes int `json:"nodes"`
	// Family echoes the registered family for non-sched designs; absent
	// for sched, keeping the scheduling wire byte-identical to PR 4.
	Family string `json:"family,omitempty"`
}

// GetDesignResponse returns a registered design
// (GET /v1/designs/{ref}).
type GetDesignResponse struct {
	// Ref echoes the requested reference.
	Ref string `json:"ref"`
	// Design is the canonical design text.
	Design string `json:"design"`
	// Family is the family the design was registered under; absent for
	// sched.
	Family string `json:"family,omitempty"`
}

package lwmapi

// Watermark family names accepted in the envelopes' "family" field. The
// empty string is equivalent to FamilySched everywhere, so pre-family
// payloads keep their meaning.
const (
	// FamilySched: temporal-edge watermarks on operation schedules
	// (internal/schedwm; paper §IV-A).
	FamilySched = "sched"
	// FamilyTmwm: enforced template matchings and pseudo-primary outputs
	// on datapath covers (internal/tmwm + internal/tmatch; paper §IV-B).
	FamilyTmwm = "tmwm"
	// FamilyGcolor: constraint edges on graph-coloring instances
	// (internal/gcolor; paper §III's running example).
	FamilyGcolor = "gcolor"
)

// CanonicalFamily maps the wire's family field to its canonical name:
// the empty string means FamilySched. Unknown names pass through
// unchanged (the server answers them with CodeFamilyUnknown).
func CanonicalFamily(name string) string {
	if name == "" {
		return FamilySched
	}
	return name
}

// FamilyCaps are a family's capability flags, as GET /v1/families
// advertises them.
type FamilyCaps struct {
	// Batch: the family serves multi-suspect×multi-record detection
	// grids through /v1/detect.
	Batch bool `json:"batch"`
	// Robustness: the family has attack batteries, so /v1/robustness
	// accepts it. A false flag answers 400 CodeFamilyUnsupported there.
	Robustness bool `json:"robustness"`
	// Registry: designs of this family can be put into the
	// content-addressed registry and referenced by design_ref.
	Registry bool `json:"registry"`
}

// FamilyInfo describes one watermark family (GET /v1/families).
type FamilyInfo struct {
	// Name is the wire name to put in the envelopes' family field.
	Name string `json:"name"`
	// Description is a one-line human-readable summary.
	Description string `json:"description"`
	// Defaults are the MarkParams the family fills in for zero values.
	Defaults MarkParams `json:"defaults"`
	// Capabilities are the family's capability flags.
	Capabilities FamilyCaps `json:"capabilities"`
}

// ListFamiliesResponse is the discovery answer (GET /v1/families).
type ListFamiliesResponse struct {
	// Default is the family an empty family field selects.
	Default string `json:"default"`
	// Families lists every served family, sorted by name.
	Families []FamilyInfo `json:"families"`
}

package server

import (
	"errors"
	"net/http"
	"strings"

	"localwm/internal/store"
	"localwm/lwmapi"
)

// The design registry routes. Both run through the same admission queue
// ("designs") as the compute endpoints — a put parses and warms a
// design, which is real work worth bounding — and share its metrics.
//
//	PUT  /v1/designs        register a design, answer its ref
//	GET  /v1/designs/{ref}  fetch a registered design's canonical text
//
// POST is accepted as an alias of PUT: the operation is idempotent
// (content addressing makes re-putting a no-op), and some proxies only
// speak POST.
//
// Both operations run in the request tenant's namespace: a put derives a
// tenant-salted ref and counts against the tenant's store quota, and a
// get only resolves refs the same tenant put — another tenant's ref (or
// an anonymous probe of a tenant's ref) is a plain 404, never an
// existence leak.

// handleDesigns dispatches the two registry operations by method+path.
// The admission path has already filtered methods down to PUT/POST/GET.
func (s *Server) handleDesigns(r *http.Request) (any, error) {
	ref, hasRef := strings.CutPrefix(r.URL.Path, "/v1/designs/")
	switch {
	case r.Method == http.MethodGet:
		if !hasRef || ref == "" {
			return nil, badRequest("GET needs a reference: /v1/designs/{ref}")
		}
		return s.handleGetDesign(tenantFrom(r.Context()).ns, ref)
	case hasRef && ref != "":
		return nil, badRequest("PUT takes no reference in the path: the registry derives it from the design")
	default:
		return s.handlePutDesign(r)
	}
}

func (s *Server) handlePutDesign(r *http.Request) (any, error) {
	var req lwmapi.PutDesignRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	proto, err := s.familyOf(req.Family)
	if err != nil {
		return nil, err
	}
	tn := tenantFrom(r.Context())
	var maxBytes, maxEntries int64
	if tn.t != nil {
		maxBytes, maxEntries = tn.t.MaxStoreBytes, tn.t.MaxStoreEntries
	}
	d, created, err := s.store.PutOwnedFamily(proto.Name(), tn.ns, req.Design, maxBytes, maxEntries)
	s.metrics.observeFamily(proto.Name(), epDesigns, err)
	if errors.Is(err, store.ErrQuotaExceeded) {
		s.meter.QuotaDenied(tn.ns)
		return nil, &apiError{status: http.StatusRequestEntityTooLarge,
			code: lwmapi.CodeTenantQuotaExceeded, msg: err.Error()}
	}
	if errors.Is(err, store.ErrAppend) {
		// A disk-side fault: retryable, unlike a bad design.
		return nil, &apiError{status: http.StatusInternalServerError,
			code: lwmapi.CodeInternal, msg: "design: " + err.Error()}
	}
	if err != nil {
		return nil, badRequest("design: %v", err)
	}
	resp := &lwmapi.PutDesignResponse{
		Ref:     d.Ref,
		Created: created,
		Bytes:   len(d.Text),
		Nodes:   d.Nodes(),
	}
	// Scheduling-family answers omit the field, keeping the pre-family
	// response bytes frozen; other families echo their name.
	if d.Family != lwmapi.FamilySched {
		resp.Family = d.Family
	}
	return resp, nil
}

func (s *Server) handleGetDesign(ns, ref string) (any, error) {
	if !store.ValidRef(ref) {
		return nil, badRequest("ref: not a registry reference (want 64 lowercase hex digits)")
	}
	d, ok := s.store.GetOwned(ns, ref)
	if !ok {
		return nil, refNotFound(ref)
	}
	resp := &lwmapi.GetDesignResponse{Ref: d.Ref, Design: d.Text}
	if d.Family != lwmapi.FamilySched {
		resp.Family = d.Family
	}
	return resp, nil
}

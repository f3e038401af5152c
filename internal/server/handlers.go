package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"localwm/internal/family"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// The wire types live in the public lwmapi package, shared verbatim with
// lwmclient so the two sides of the contract cannot drift. This file
// holds the server-side semantics: family dispatch, design resolution
// (inline text vs registry reference), and the protocol calls. The
// per-family lifecycle — parameter defaulting, admission checks, codec
// choice, and the watermarking calls themselves — lives in
// internal/family; every compute endpoint resolves the request's family
// field ("" means the scheduling family) and routes through that
// protocol, so the server never names a family-specific engine.

// familyOf resolves a request's family field to its protocol. An
// unknown name is a 400 with the family_unknown code, listing the
// families the daemon serves.
func (s *Server) familyOf(name string) (family.Protocol, error) {
	proto, err := family.Lookup(name)
	if err != nil {
		return nil, &apiError{status: http.StatusBadRequest,
			code: lwmapi.CodeFamilyUnknown, msg: err.Error()}
	}
	return proto, nil
}

// decode parses the request body into v with unknown fields rejected, so
// a typo'd parameter fails loudly instead of silently taking a default.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("decoding request: %v", err)
	}
	return nil
}

// resolveDesign turns a request's design choice — inline text or a
// registry reference — into a family-typed design. The reference wins
// when both are set; an unresolvable reference is a 404 (never a silent
// fallback to the inline text, so the caller can count misses and
// re-put). Lookups run in the context tenant's namespace: a ref put by
// another tenant is indistinguishable from one that never existed. A ref
// that resolves to a design of a different family is a 400 — refs are
// family-salted (store.RefOfFamily), so the suspect bytes can never be
// parsed as the wrong artifact kind.
//
// The returned shared flag is true when the design IS the registry's
// resident copy: read-only by contract, safe for concurrent oracle
// queries, but never to be mutated or trace-hooked. Callers that mutate
// (embedding) must pass wantClone to get a private copy — the clone's
// oracle starts cold, but the parse is still skipped.
func (s *Server) resolveDesign(ctx context.Context, proto family.Protocol, field, inline, ref string, wantClone bool) (d family.Design, shared bool, err error) {
	if ref == "" {
		d, err := family.ParseDesign(proto, field, inline)
		if err != nil {
			return nil, false, badRequest("%v", err)
		}
		return d, false, nil
	}
	if !store.ValidRef(ref) {
		return nil, false, badRequest("%s_ref: not a registry reference (want 64 lowercase hex digits)", field)
	}
	if ri := reqInfoFrom(ctx); ri != nil {
		ri.designRef = ref // retained traces carry the ref they resolved
	}
	sd, ok := s.store.GetOwned(tenantFrom(ctx).ns, ref)
	if !ok {
		return nil, false, refNotFound(ref)
	}
	if fam := lwmapi.CanonicalFamily(sd.Family); fam != proto.Name() {
		return nil, false, badRequest("%s_ref: design is registered under family %q, not %q", field, fam, proto.Name())
	}
	if wantClone {
		return sd.Artifact.Clone(), false, nil
	}
	return sd.Artifact, true, nil
}

// resolveSuspect resolves a suspect design and parses its solution
// (schedule, cover, or coloring) against it. Detection and verification
// only read the suspect, so a ref-resolved suspect shares the registry's
// warmed copy.
func (s *Server) resolveSuspect(ctx context.Context, proto family.Protocol, field string, sp lwmapi.Suspect) (family.Suspect, error) {
	d, shared, err := s.resolveDesign(ctx, proto, field, sp.Design, sp.DesignRef, false)
	if err != nil {
		return family.Suspect{}, err
	}
	sol, err := proto.ParseSolution(d, sp.Schedule)
	if err != nil {
		return family.Suspect{}, badRequest("%s: %v", field, err)
	}
	return family.Suspect{Design: d, Solution: sol, Shared: shared}, nil
}

// engineWorkers resolves a request's fan-out width (detect batches and
// campaign grids): the server default when unset, clamped to the
// configured maximum, and floored at 1 (family.RunPool treats <=1 as
// sequential anyway).
func (s *Server) engineWorkers(requested int) int {
	w := requested
	if w == 0 {
		w = s.cfg.EngineWorkers
	}
	if w > s.cfg.MaxEngineWorkers {
		w = s.cfg.MaxEngineWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (s *Server) handleEmbed(r *http.Request) (any, error) {
	var req lwmapi.EmbedRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return s.runEmbed(r.Context(), &req)
}

// runEmbed executes an already-decoded embed request. Split from the
// HTTP handler so the async job executor drives the same path — the
// byte-identity contract between POST /v1/embed and an embed job's
// stored result rests on the two sharing this code. The family metrics
// count here, for the same reason: sync and async executions land in the
// same per-family series.
func (s *Server) runEmbed(ctx context.Context, req *lwmapi.EmbedRequest) (any, error) {
	defer s.meterEngine(ctx, time.Now())
	proto, err := s.familyOf(req.Family)
	if err != nil {
		return nil, err
	}
	resp, err := s.embedWith(ctx, proto, req)
	s.metrics.observeFamily(proto.Name(), epEmbed, err)
	return resp, err
}

func (s *Server) embedWith(ctx context.Context, proto family.Protocol, req *lwmapi.EmbedRequest) (any, error) {
	proto.Normalize(&req.MarkParams)
	if err := family.CheckEmbed(req.Signature, req.N); err != nil {
		return nil, badRequest("%v", err)
	}
	// Embedding mutates the design, so a ref-resolved design is cloned:
	// the registry copy stays pristine and the clone is request-private
	// (safe to trace).
	d, _, err := s.resolveDesign(ctx, proto, "design", req.Design, req.DesignRef, true)
	if err != nil {
		return nil, err
	}
	resp, err := proto.Embed(ctx, d, req.Signature, req.MarkParams, 1)
	if err != nil {
		// Protocol errors carry the exact field-prefixed text the 400
		// envelope should answer ("design: …", "embedding: …").
		return nil, badRequest("%v", err)
	}
	return resp, nil
}

func (s *Server) handleDetect(r *http.Request) (any, error) {
	var req lwmapi.DetectRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return s.runDetect(r.Context(), &req)
}

// runDetect executes an already-decoded detect request (see runEmbed).
func (s *Server) runDetect(ctx context.Context, req *lwmapi.DetectRequest) (any, error) {
	defer s.meterEngine(ctx, time.Now())
	proto, err := s.familyOf(req.Family)
	if err != nil {
		return nil, err
	}
	resp, err := s.detectWith(ctx, proto, req)
	s.metrics.observeFamily(proto.Name(), epDetect, err)
	return resp, err
}

func (s *Server) detectWith(ctx context.Context, proto family.Protocol, req *lwmapi.DetectRequest) (any, error) {
	if err := family.CheckDetect(len(req.Suspects), len(req.Records)); err != nil {
		return nil, badRequest("%v", err)
	}
	suspects := make([]family.Suspect, len(req.Suspects))
	for i, sp := range req.Suspects {
		fsp, err := s.resolveSuspect(ctx, proto, fieldIndex("suspects", i), sp)
		if err != nil {
			return nil, err
		}
		suspects[i] = fsp
	}
	resp, err := proto.Detect(ctx, suspects, req.Records, s.engineWorkers(req.Workers))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return resp, nil
}

func (s *Server) handleVerify(r *http.Request) (any, error) {
	var req lwmapi.VerifyRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	return s.runVerify(r.Context(), &req)
}

// runVerify executes an already-decoded verify request (see runEmbed).
func (s *Server) runVerify(ctx context.Context, req *lwmapi.VerifyRequest) (any, error) {
	defer s.meterEngine(ctx, time.Now())
	proto, err := s.familyOf(req.Family)
	if err != nil {
		return nil, err
	}
	resp, err := s.verifyWith(ctx, proto, req)
	s.metrics.observeFamily(proto.Name(), epVerify, err)
	return resp, err
}

func (s *Server) verifyWith(ctx context.Context, proto family.Protocol, req *lwmapi.VerifyRequest) (any, error) {
	proto.Normalize(&req.MarkParams)
	if err := family.CheckVerify(req.Signature); err != nil {
		return nil, badRequest("%v", err)
	}
	// Verification clones internally before re-deriving, so a
	// ref-resolved suspect shares the registry copy like detection does.
	sp, err := s.resolveSuspect(ctx, proto, "suspect",
		lwmapi.Suspect{Design: req.Design, DesignRef: req.DesignRef, Schedule: req.Schedule})
	if err != nil {
		return nil, err
	}
	resp, err := proto.Verify(ctx, sp, req.Signature, req.MarkParams, 1)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return resp, nil
}

func fieldIndex(field string, i int) string {
	return field + "[" + strconv.Itoa(i) + "]"
}

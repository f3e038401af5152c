package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"localwm/internal/family"
	"localwm/internal/prng"
	"localwm/internal/robust"
	"localwm/lwmapi"
)

// POST /v1/robustness — the attack-campaign endpoint. A campaign
// re-marks the design deterministically (same engine path as /v1/embed),
// runs the battery through internal/robust, and answers the structured
// report. Small campaigns (units <= Config.RobustSyncUnits, async unset)
// run inline on this endpoint's worker pool; larger ones are submitted
// to the durable job queue and answered with the job status — the
// response envelope carries exactly one of report or job, always with
// HTTP 200, so the resilient client treats the dispatch decision as
// data, not as an error. The job's stored result bytes are the same
// envelope with report set, byte-identical to what the synchronous path
// would have answered.

// robustFamily resolves and gates a campaign request's family: attack
// batteries exist only for the scheduling family, so any other family is
// a 400 with the family_unsupported code. Checked both at admission
// (before the dispatch decision, so a campaign never becomes a doomed
// job) and again in runRobustReport (the job executor's entry, covering
// jobs submitted directly through /v1/jobs).
func (s *Server) robustFamily(name string) (family.Protocol, error) {
	proto, err := s.familyOf(name)
	if err != nil {
		return nil, err
	}
	if !proto.Info().Capabilities.Robustness {
		return nil, &apiError{status: http.StatusBadRequest, code: lwmapi.CodeFamilyUnsupported,
			msg: fmt.Sprintf("family %q: robustness campaigns not supported (no attack batteries)", proto.Name())}
	}
	return proto, nil
}

func (s *Server) handleRobustness(r *http.Request) (any, error) {
	var req lwmapi.RobustnessRequest
	if err := decode(r, &req); err != nil {
		return nil, err
	}
	if _, err := s.robustFamily(req.Family); err != nil {
		return nil, err
	}
	// Validate the battery before deciding the dispatch path, so a
	// malformed spec fails 400 here instead of becoming a failed job.
	battery, err := robust.Normalize(req.Battery)
	if err != nil {
		return nil, badRequest("battery: %v", err)
	}
	req.Battery = battery
	if !req.Async && robust.Units(battery) <= s.cfg.RobustSyncUnits {
		return s.runRobust(r.Context(), &req)
	}
	st, err := s.submitJob(r.Context(), &lwmapi.JobRequest{
		Kind:           lwmapi.JobKindRobustness,
		Robustness:     &req,
		WebhookURL:     req.WebhookURL,
		IdempotencyKey: req.IdempotencyKey,
		MaxAttempts:    req.MaxAttempts,
	})
	if err != nil {
		return nil, err
	}
	return &lwmapi.RobustnessResponse{Job: st}, nil
}

// runRobust executes an already-decoded campaign and wraps the report in
// the response envelope. Shared by the synchronous handler and the async
// job executor — the byte-identity contract between POST /v1/robustness
// and a robustness job's stored result rests on the two sharing this
// code (and on the campaign engine's own determinism across worker
// counts).
func (s *Server) runRobust(ctx context.Context, req *lwmapi.RobustnessRequest) (*lwmapi.RobustnessResponse, error) {
	rep, err := s.runRobustReport(ctx, req)
	if err != nil {
		return nil, err
	}
	return &lwmapi.RobustnessResponse{Report: rep}, nil
}

func (s *Server) runRobustReport(ctx context.Context, req *lwmapi.RobustnessRequest) (rep *lwmapi.RobustnessReport, err error) {
	start := time.Now()
	defer s.meterEngine(ctx, start)
	proto, err := s.robustFamily(req.Family)
	if err != nil {
		return nil, err
	}
	defer func() { s.metrics.observeFamily(proto.Name(), epRobust, err) }()
	battery, err := robust.Normalize(req.Battery)
	if err != nil {
		return nil, badRequest("battery: %v", err)
	}
	proto.Normalize(&req.MarkParams)
	// Prepare clones internally and only ever reads the resolved graph,
	// so a ref-resolved design shares the registry's warmed copy.
	d, shared, err := s.resolveDesign(ctx, proto, "design", req.Design, req.DesignRef, false)
	if err != nil {
		return nil, err
	}
	// The campaign engine re-marks through schedwm directly, so unwrap
	// the cdfg (the robustFamily gate guarantees a scheduling design)
	// and build its config the way the protocol does.
	g, _ := family.CDFG(d)
	cfg, err := family.SchedConfig(g, req.MarkParams, 1)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if !shared {
		family.ObserveGraph(ctx, g)
	}
	base, err := robust.Prepare(ctx, g, prng.Signature(req.Signature), cfg, req.N)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, badRequest("embedding: %v", err)
	}
	rep, err = robust.Run(ctx, &robust.Campaign{
		Baseline: base,
		Seed:     req.Seed,
		Battery:  battery,
		Workers:  s.engineWorkers(req.Workers),
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		// A campaign-level failure (undetectable baseline) is a property
		// of the request, not of the daemon: retrying replays the same
		// deterministic pipeline to the same end.
		return nil, badRequest("campaign: %v", err)
	}
	s.meter.Campaign(tenantFrom(ctx).ns)
	if s.robustDur != nil {
		s.robustDur.Observe(time.Since(start))
	}
	return rep, nil
}

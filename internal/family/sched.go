package family

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"localwm/internal/cdfg"
	"localwm/internal/engine"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// schedFamily adapts internal/schedwm + internal/engine: temporal-edge
// watermarks on operation schedules, the family the daemon originally
// served. Its responses are byte-identical to the pre-family daemon's —
// every error string and every outcome field below is lifted verbatim
// from the old internal/server handlers.
type schedFamily struct{}

func (schedFamily) Name() string { return lwmapi.FamilySched }

func (schedFamily) Info() lwmapi.FamilyInfo {
	return lwmapi.FamilyInfo{
		Name:        lwmapi.FamilySched,
		Description: "temporal-edge watermarks on operation schedules (schedwm + engine)",
		Defaults:    lwmapi.MarkParams{N: 2, Tau: 20, K: 4, Epsilon: 0.25},
		Capabilities: lwmapi.FamilyCaps{
			Batch: true, Robustness: true, Registry: true,
		},
	}
}

func (schedFamily) Normalize(p *lwmapi.MarkParams) {
	if p.N == 0 {
		p.N = 2
	}
	if p.Tau == 0 {
		p.Tau = 20
	}
	if p.K == 0 {
		p.K = 4
	}
	if p.Epsilon == 0 {
		p.Epsilon = 0.25
	}
}

// cdfgDesign wraps a cdfg graph; shared by the sched and tmwm families
// (their designs are the same artifact — the families differ in what the
// watermark constrains).
type cdfgDesign struct {
	family string
	g      *cdfg.Graph
}

func (d *cdfgDesign) Family() string { return d.family }
func (d *cdfgDesign) Nodes() int     { return d.g.Len() }
func (d *cdfgDesign) CDFG() *cdfg.Graph {
	return d.g
}

func (d *cdfgDesign) Canonical() string {
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, d.g); err != nil {
		// Write to a bytes.Buffer cannot fail for a valid graph; a parse
		// produced d.g, so this is unreachable.
		panic(fmt.Sprintf("family: canonicalizing cdfg design: %v", err))
	}
	return buf.String()
}

func (d *cdfgDesign) Clone() Design {
	return &cdfgDesign{family: d.family, g: d.g.Clone()}
}

func parseCDFGDesign(familyName, text string) (Design, error) {
	g, err := cdfg.Parse(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	return &cdfgDesign{family: familyName, g: g}, nil
}

func (schedFamily) ParseDesign(text string) (Design, error) {
	return parseCDFGDesign(lwmapi.FamilySched, text)
}

func (schedFamily) ParseSolution(d Design, text string) (Solution, error) {
	return sched.ParseSchedule(d.(*cdfgDesign).g, strings.NewReader(text))
}

// SchedConfig builds the schedwm.Config for p against g, defaulting the
// budget exactly like the CLI (critical path + 10% + 1). Exported for
// the robustness campaign path, which re-embeds through the scheduling
// engine directly. The critical path comes from g's PathOracle, where
// schedwm.Prepare finds it again. workers does not reach the config:
// embedding runs sequentially at every worker count.
func SchedConfig(g *cdfg.Graph, p lwmapi.MarkParams, workers int) (schedwm.Config, error) {
	budget := p.Budget
	if budget == 0 {
		cp, err := g.Oracle().CriticalPathW(nil)
		if err != nil {
			return schedwm.Config{}, fmt.Errorf("design: %v", err)
		}
		budget = cp + cp/10 + 1
	}
	cfg := schedwm.Config{Tau: p.Tau, K: p.K, Epsilon: p.Epsilon, Budget: budget}
	if _, err := cfg.Normalized(); err != nil {
		return schedwm.Config{}, err
	}
	return cfg, nil
}

func (schedFamily) Embed(ctx context.Context, d Design, sig string, p lwmapi.MarkParams, workers int) (*lwmapi.EmbedResponse, error) {
	g := d.(*cdfgDesign).g
	// Observe first: the budget's critical path is the first oracle
	// recompute, and the trace shows it.
	ObserveGraph(ctx, g)
	cfg, err := SchedConfig(g, p, workers)
	if err != nil {
		return nil, err
	}
	wms, err := engine.EmbedManyCtx(ctx, g, prng.Signature(sig), cfg, p.N)
	if err != nil {
		return nil, fmt.Errorf("embedding: %v", err)
	}
	resp := &lwmapi.EmbedResponse{Watermarks: len(wms)}
	for _, wm := range wms {
		resp.Records = append(resp.Records, lwmapi.FromSchedRecord(wm.Record()))
		resp.TemporalEdges += len(wm.Edges)
	}
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, g); err != nil {
		return nil, err
	}
	resp.MarkedDesign = buf.String()
	return resp, nil
}

func (schedFamily) Detect(ctx context.Context, suspects []Suspect, records []lwmapi.Record, workers int) (*lwmapi.DetectResponse, error) {
	es := make([]engine.Suspect, len(suspects))
	for i, sp := range suspects {
		g := sp.Design.(*cdfgDesign).g
		if !sp.Shared {
			ObserveGraph(ctx, g)
		}
		es[i] = engine.Suspect{Graph: g, Schedule: sp.Solution.(*sched.Schedule)}
	}
	batch := engine.DetectBatchCtx(ctx, es, lwmapi.SchedRecords(records), workers)
	resp := &lwmapi.DetectResponse{Results: make([][]lwmapi.DetectOutcome, len(batch))}
	for i, row := range batch {
		resp.Results[i] = make([]lwmapi.DetectOutcome, len(row))
		for j, res := range row {
			out := &resp.Results[i][j]
			if res.Err != nil {
				out.Error = res.Err.Error()
				continue
			}
			det := res.Det
			out.Found = det.Found
			out.Satisfied = det.Best.Satisfied
			out.Total = det.Best.Total
			out.Pc = det.Best.Pc.String()
			out.RootsTried = det.RootsTried
			if det.Found {
				resp.Detected++
				if len(det.Matches) > 0 {
					out.Root = es[i].Graph.Node(det.Matches[0].Root).Name
				}
			}
		}
	}
	return resp, nil
}

func (schedFamily) Verify(ctx context.Context, sp Suspect, sig string, p lwmapi.MarkParams, workers int) (*lwmapi.VerifyResponse, error) {
	g := sp.Design.(*cdfgDesign).g
	if !sp.Shared {
		ObserveGraph(ctx, g)
	}
	cfg, err := SchedConfig(g, p, workers)
	if err != nil {
		return nil, err
	}
	det, err := engine.VerifyOwnershipCtx(ctx, g, sp.Solution.(*sched.Schedule),
		prng.Signature(sig), cfg, p.N)
	if err != nil {
		return nil, fmt.Errorf("verifying: %v", err)
	}
	return &lwmapi.VerifyResponse{
		Verified:   det.Found,
		Satisfied:  det.Best.Satisfied,
		Total:      det.Best.Total,
		Pc:         det.Best.Pc.String(),
		RootsTried: det.RootsTried,
	}, nil
}

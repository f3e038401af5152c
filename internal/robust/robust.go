// Package robust is the attack-campaign engine behind POST
// /v1/robustness and `lwm robust`: it re-marks a design
// deterministically, runs a battery of seeded attacks (families × an
// intensity ladder × repeated trials) against the marked schedule,
// re-runs detection after every attack, and aggregates the verdicts into
// a structured report — per-locality survival rates, Pc degradation per
// intensity step, and the minimum attack budget that defeated a
// Convincing detection.
//
// Determinism is the package's contract: every attack unit draws its
// randomness from a bitstream keyed by seed|family|intensity|trial, the
// unit grid is executed on the shared worker pool (family.RunPool) into
// a position-indexed slice, and aggregation walks that slice in battery
// order — so the same campaign produces a byte-identical report at any
// worker count, on the synchronous server path, through the async job
// queue, or offline in the CLI.
package robust

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"localwm/internal/attack"
	"localwm/internal/cdfg"
	"localwm/internal/family"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// Battery bounds: wide enough for any sane campaign, tight enough that a
// hostile spec cannot turn one request into an unbounded compute bill.
const (
	// MaxTrials caps the per-cell trial count.
	MaxTrials = 64
	// MaxAttacks caps the family list length.
	MaxAttacks = 16
	// MaxIntensities caps one family's ladder length.
	MaxIntensities = 32
	// MaxUnits caps the whole campaign's unit grid
	// (Σ len(intensities) × trials).
	MaxUnits = 4096
)

// Process-wide campaign counters, exported for the lwmd daemon's
// metrics. All monotonic; consumers difference snapshots for rates.
var counters struct {
	campaigns  atomic.Uint64 // campaigns run to completion or failure
	units      atomic.Uint64 // attack units executed
	unitErrors atomic.Uint64 // units that ended in an attack/detect error
	scans      atomic.Uint64 // per-locality detections re-run after attacks
	survivals  atomic.Uint64 // scans in which the locality was still Found
}

// Counters is a snapshot of the package's cumulative activity.
type Counters struct {
	// Campaigns counts Run calls that finished (successfully or not).
	Campaigns uint64
	// Units and UnitErrors count executed attack units and the subset
	// that ended in an error instead of a verdict.
	Units, UnitErrors uint64
	// Scans and Survivals count post-attack per-locality detections and
	// how many still found the watermark; their ratio is the process-wide
	// survival rate.
	Scans, Survivals uint64
}

// Stats returns the process-wide campaign counters since start.
func Stats() Counters {
	return Counters{
		Campaigns:  counters.campaigns.Load(),
		Units:      counters.units.Load(),
		UnitErrors: counters.unitErrors.Load(),
		Scans:      counters.scans.Load(),
		Survivals:  counters.survivals.Load(),
	}
}

// DefaultBattery is the battery an empty spec selects: every family, a
// short perturbation ladder, and a half-design crop.
func DefaultBattery() []lwmapi.AttackSpec {
	return []lwmapi.AttackSpec{
		{Family: lwmapi.AttackPerturb, Intensities: []int{10, 50, 250}},
		{Family: lwmapi.AttackCrop, Intensities: []int{25, 50}},
		{Family: lwmapi.AttackRenumber, Intensities: []int{1}},
		{Family: lwmapi.AttackReschedule, Intensities: []int{1}},
		{Family: lwmapi.AttackHost, Intensities: []int{1}},
	}
}

// Normalize fills a battery spec's defaults and validates it: known
// families (no duplicates), positive strictly increasing intensities
// (crop percentages within 1–100), trials in [1, MaxTrials], alpha in
// (0,1), and a unit grid within MaxUnits.
func Normalize(b lwmapi.BatterySpec) (lwmapi.BatterySpec, error) {
	if b.Trials == 0 {
		b.Trials = 3
	}
	if b.Trials < 0 || b.Trials > MaxTrials {
		return b, fmt.Errorf("robust: trials %d outside [1, %d]", b.Trials, MaxTrials)
	}
	if b.Alpha == 0 {
		b.Alpha = 1e-6
	}
	if b.Alpha <= 0 || b.Alpha >= 1 {
		return b, fmt.Errorf("robust: alpha %v outside (0, 1)", b.Alpha)
	}
	if len(b.Attacks) == 0 {
		b.Attacks = DefaultBattery()
	}
	if len(b.Attacks) > MaxAttacks {
		return b, fmt.Errorf("robust: %d attack families exceed the limit of %d", len(b.Attacks), MaxAttacks)
	}
	known := make(map[string]bool)
	for _, f := range lwmapi.AttackFamilies() {
		known[f] = true
	}
	seen := make(map[string]bool)
	for _, a := range b.Attacks {
		if !known[a.Family] {
			return b, fmt.Errorf("robust: unknown attack family %q", a.Family)
		}
		if seen[a.Family] {
			return b, fmt.Errorf("robust: attack family %q listed twice", a.Family)
		}
		seen[a.Family] = true
		if len(a.Intensities) == 0 {
			return b, fmt.Errorf("robust: family %q has no intensities", a.Family)
		}
		if len(a.Intensities) > MaxIntensities {
			return b, fmt.Errorf("robust: family %q has %d intensities, limit %d", a.Family, len(a.Intensities), MaxIntensities)
		}
		for i, v := range a.Intensities {
			if v < 1 {
				return b, fmt.Errorf("robust: family %q intensity %d must be positive", a.Family, v)
			}
			if a.Family == lwmapi.AttackCrop && v > 100 {
				return b, fmt.Errorf("robust: crop intensity %d exceeds 100 percent", v)
			}
			if i > 0 && a.Intensities[i-1] >= v {
				return b, fmt.Errorf("robust: family %q intensities must be strictly increasing", a.Family)
			}
		}
	}
	if u := Units(b); u > MaxUnits {
		return b, fmt.Errorf("robust: battery of %d units exceeds the limit of %d", u, MaxUnits)
	}
	return b, nil
}

// Units is the campaign's unit-grid size: Σ len(intensities) × trials.
// The server compares it against its sync threshold to choose between
// answering inline and dispatching a job.
func Units(b lwmapi.BatterySpec) int {
	total := 0
	for _, a := range b.Attacks {
		total += len(a.Intensities) * b.Trials
	}
	return total
}

// Baseline is the deterministic re-marking of a design: the attacker's
// view of the shipped artifact plus the owner's detection records.
type Baseline struct {
	// Graph is the marked design as shipped — temporal edges stripped,
	// exactly what every attack (and every detection) sees. It is never
	// mutated after Prepare, so attack units may read it concurrently.
	Graph *cdfg.Graph
	// Sched is the marked schedule, honoring the (hidden) temporal
	// edges, with the budget normalized to the embedding budget so the
	// attacker has the declared slack to move ops within.
	Sched *sched.Schedule
	// Records are the detector-facing watermark records, one per
	// locality.
	Records []schedwm.Record
}

// Prepare re-marks a design deterministically: clone, clear temporal
// edges, embed n local watermarks from the signature, schedule honoring
// the fresh temporal edges, then strip them again for the shipped view.
// The input graph is never mutated. cfg must carry an explicit positive
// Budget (callers normalize params first).
func Prepare(ctx context.Context, g *cdfg.Graph, sig prng.Signature, cfg schedwm.Config, n int) (*Baseline, error) {
	marked := g.Clone()
	marked.ClearTemporalEdges()
	_, span := obs.StartSpan(ctx, "engine.embed")
	span.SetAttr("n", n)
	wms, err := schedwm.EmbedMany(marked, sig, cfg, n)
	span.Finish()
	if err != nil {
		return nil, err
	}
	s, err := sched.ListSchedule(marked, sched.ListOpts{UseTemporal: true})
	if err != nil {
		return nil, err
	}
	if s.Budget < cfg.Budget {
		s.Budget = cfg.Budget
	}
	recs := make([]schedwm.Record, 0, len(wms))
	for _, wm := range wms {
		recs = append(recs, wm.Record())
	}
	shipped := marked.Clone()
	shipped.ClearTemporalEdges()
	return &Baseline{Graph: shipped, Sched: s, Records: recs}, nil
}

// Campaign is one fully specified robustness run.
type Campaign struct {
	// Baseline is the marked design under attack (from Prepare).
	Baseline *Baseline
	// Seed keys every unit's randomness.
	Seed string
	// Battery is the normalized spec (from Normalize).
	Battery lwmapi.BatterySpec
	// Workers bounds unit-level parallelism (<=1: sequential). The
	// report is identical at every worker count.
	Workers int
}

// unit is one cell execution of the campaign grid.
type unit struct {
	family    string
	intensity int
	trial     int
}

// outcome is one unit's per-locality verdicts (or its failure).
type outcome struct {
	found      []bool
	convincing []bool
	pcExp      []float64
	err        error
}

// Run executes the campaign and builds the report. The error return is
// reserved for campaign-level failures (an undetectable baseline, a
// cancelled context); individual attack-unit failures land in the
// report's per-step Errors instead of aborting the battery.
func Run(ctx context.Context, c *Campaign) (*lwmapi.RobustnessReport, error) {
	defer counters.campaigns.Add(1)
	base := c.Baseline
	rep := &lwmapi.RobustnessReport{
		Localities:    len(base.Records),
		Seed:          c.Seed,
		Alpha:         c.Battery.Alpha,
		Trials:        c.Battery.Trials,
		Units:         Units(c.Battery),
		BaselinePcExp: make([]float64, len(base.Records)),
	}

	// Baseline detection: the unattacked marked schedule must carry its
	// own watermarks, or the campaign measures nothing.
	for i, rec := range base.Records {
		det, err := schedwm.Detect(base.Graph, base.Sched, rec)
		if err != nil {
			return nil, fmt.Errorf("robust: baseline detection of locality %d: %v", i, err)
		}
		if !det.Found {
			return nil, fmt.Errorf("robust: locality %d not detected in the unattacked schedule (%d/%d)",
				i, det.Best.Satisfied, det.Best.Total)
		}
		rep.Constraints += det.Best.Total
		rep.BaselinePcExp[i] = det.Best.Pc.Exponent10()
	}

	// Flatten the grid, run it through the pool into a position-indexed
	// slice, then aggregate sequentially in battery order.
	var grid []unit
	for _, a := range c.Battery.Attacks {
		for _, v := range a.Intensities {
			for t := 0; t < c.Battery.Trials; t++ {
				grid = append(grid, unit{family: a.Family, intensity: v, trial: t})
			}
		}
	}
	outcomes := make([]outcome, len(grid))
	family.RunPool(c.Workers, len(grid), func(i int) {
		if ctx.Err() == nil {
			outcomes[i] = runUnit(base, c.Seed, c.Battery.Alpha, grid[i])
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	pos := 0
	for _, a := range c.Battery.Attacks {
		fam := lwmapi.FamilyReport{Family: a.Family, MinDefeatBudget: -1}
		for _, v := range a.Intensities {
			step := aggregate(v, len(base.Records), outcomes[pos:pos+c.Battery.Trials])
			pos += c.Battery.Trials
			if fam.MinDefeatBudget == -1 && step.Trials > 0 && !anyConvincing(step) {
				fam.MinDefeatBudget = v
			}
			fam.Steps = append(fam.Steps, step)
		}
		rep.Families = append(rep.Families, fam)
	}
	return rep, nil
}

// aggregate folds one cell's trial outcomes into an IntensityStep.
// Errored trials are excluded from the denominators and listed in
// Errors, in trial order.
func aggregate(intensity, localities int, trials []outcome) lwmapi.IntensityStep {
	step := lwmapi.IntensityStep{
		Intensity:  intensity,
		Survival:   make([]float64, localities),
		Convincing: make([]float64, localities),
		MeanPcExp:  make([]float64, localities),
	}
	for _, o := range trials {
		if o.err != nil {
			step.Errors = append(step.Errors, o.err.Error())
			continue
		}
		step.Trials++
		for i := 0; i < localities; i++ {
			if o.found[i] {
				step.Survival[i]++
			}
			if o.convincing[i] {
				step.Convincing[i]++
			}
			step.MeanPcExp[i] += o.pcExp[i]
		}
	}
	if step.Trials > 0 {
		for i := range step.Survival {
			step.Survival[i] /= float64(step.Trials)
			step.Convincing[i] /= float64(step.Trials)
			step.MeanPcExp[i] /= float64(step.Trials)
		}
	}
	return step
}

// anyConvincing reports whether any locality stayed Convincing in any
// completed trial of the step.
func anyConvincing(step lwmapi.IntensityStep) bool {
	for _, f := range step.Convincing {
		if f > 0 {
			return true
		}
	}
	return false
}

// runUnit executes one seeded attack and re-runs detection for every
// locality. All randomness comes from a bitstream keyed by
// seed|family|intensity|trial, so the unit is independent of scheduling
// order and worker count; the shared baseline is only ever read.
func runUnit(base *Baseline, seed string, alpha float64, u unit) outcome {
	counters.units.Add(1)
	bs, err := prng.NewBitstream(prng.Signature(
		fmt.Sprintf("%s|%s|%d|%d", seed, u.family, u.intensity, u.trial)))
	if err != nil {
		counters.unitErrors.Add(1)
		return outcome{err: err}
	}

	var (
		g *cdfg.Graph
		s *sched.Schedule
	)
	switch u.family {
	case lwmapi.AttackPerturb:
		work := base.Sched.Clone()
		attack.Perturb(base.Graph, work, u.intensity, bs)
		g, s = base.Graph, work

	case lwmapi.AttackCrop:
		n := base.Graph.Len()
		drop := n * u.intensity / 100
		perm := bs.Perm(n)
		keep := make([]cdfg.NodeID, 0, n-drop)
		for _, idx := range perm[drop:] {
			keep = append(keep, cdfg.NodeID(idx))
		}
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
		crop, err := attack.Crop(base.Graph, base.Sched, keep)
		if err != nil {
			counters.unitErrors.Add(1)
			return outcome{err: err}
		}
		if crop.Schedule.Budget == 0 {
			// Nothing schedulable survived the crop (possibly nothing at
			// all): every locality is trivially gone, no detector run
			// needed — or possible, with no control steps to analyze.
			return lostEverything(base)
		}
		g, s = crop.Graph, crop.Schedule

	case lwmapi.AttackRenumber:
		res, err := attack.Renumber(base.Graph, base.Sched, bs)
		if err != nil {
			counters.unitErrors.Add(1)
			return outcome{err: err}
		}
		g, s = res.Graph, res.Schedule

	case lwmapi.AttackReschedule:
		fresh, err := attack.Reschedule(base.Graph)
		if err != nil {
			counters.unitErrors.Add(1)
			return outcome{err: err}
		}
		g, s = base.Graph, fresh

	case lwmapi.AttackHost:
		res, err := attack.EmbedIntoHost(base.Graph, base.Sched, base.Graph, base.Sched, bs, true)
		if err != nil {
			counters.unitErrors.Add(1)
			return outcome{err: err}
		}
		g, s = res.Graph, res.Schedule

	default:
		counters.unitErrors.Add(1)
		return outcome{err: fmt.Errorf("robust: unknown attack family %q", u.family)}
	}

	o := outcome{
		found:      make([]bool, len(base.Records)),
		convincing: make([]bool, len(base.Records)),
		pcExp:      make([]float64, len(base.Records)),
	}
	for i, rec := range base.Records {
		det, err := schedwm.Detect(g, s, rec)
		if err != nil {
			counters.unitErrors.Add(1)
			return outcome{err: fmt.Errorf("detect locality %d after %s(%d): %v", i, u.family, u.intensity, err)}
		}
		counters.scans.Add(1)
		o.found[i] = det.Found
		o.convincing[i] = det.Convincing(alpha)
		o.pcExp[i] = det.Best.Pc.Exponent10()
		if det.Found {
			counters.survivals.Add(1)
		}
	}
	return o
}

// lostEverything is the verdict for an attack that destroyed the whole
// design: nothing found, nothing convincing, no surviving evidence
// (Pc exponent 0 = probability 1).
func lostEverything(base *Baseline) outcome {
	n := len(base.Records)
	counters.scans.Add(uint64(n))
	return outcome{
		found:      make([]bool, n),
		convincing: make([]bool, n),
		pcExp:      make([]float64, n),
	}
}

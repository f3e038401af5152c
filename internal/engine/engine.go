// Package engine runs localwm's embedding, detection, and ownership-
// verification drivers on a deterministic worker pool.
//
// The contract throughout is bit-identity: for every workers value —
// including under any GOMAXPROCS — each entry point returns exactly what
// its sequential counterpart in internal/schedwm returns, down to error
// messages and result ordering. Parallelism only changes wall-clock time.
//
// Embedding achieves this with optimistic speculation (see the commentary
// in internal/schedwm/spec.go) in two phases. A hint pre-pass clones the
// graph once and embeds every watermark concurrently against the
// read-only snapshot — longest-path queries meeting in the snapshot's
// shared cdfg.PathOracle — each assuming its predecessors succeed on
// their first root pick. A commit walk then replays the sequential order:
// a speculation commits if it consumed the same root values the
// sequential embedder would feed it and it survives revalidation against
// the temporal edges committed after its snapshot; any other index is
// repaired inline by embedding directly on the live graph at the true
// pick offset, which is exactly the sequential computation. Total work is
// bounded by one speculation plus at most one sequential embedding per
// watermark, so the worst case degrades to sequential cost plus the
// pre-pass, never to quadratic re-speculation.
//
// Detection and verification are read-only over the suspect graph, so they
// fan out directly; concurrent queries share the suspect's PathOracle.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"localwm/internal/cdfg"
	"localwm/internal/domain"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
)

// Process-wide engine counters, exported for the lwmd daemon's metrics.
// All monotonic; consumers difference snapshots for rates.
var counters struct {
	poolRuns    atomic.Uint64 // worker-pool fan-outs started
	poolJobs    atomic.Uint64 // jobs executed across all fan-outs
	specCommits atomic.Uint64 // speculative embeddings committed as-is
	specRepairs atomic.Uint64 // speculations replayed sequentially
	seqDegrades atomic.Uint64 // parallel calls degraded to sequential
}

// Counters is a snapshot of the engine's cumulative activity.
type Counters struct {
	// PoolRuns and PoolJobs count worker-pool fan-outs and the jobs they
	// executed (a fan-out with one worker still counts its jobs).
	PoolRuns, PoolJobs uint64
	// SpecCommits and SpecRepairs split EmbedMany's commit walk: a commit
	// means the optimistic speculation was reused verbatim, a repair means
	// it was discarded and the watermark re-embedded sequentially. Their
	// ratio is the speculation success rate.
	SpecCommits, SpecRepairs uint64
	// SeqDegrades counts parallel entry-point calls that ran the
	// sequential path instead because the process had one scheduling CPU
	// (GOMAXPROCS=1): fanning out there only adds overhead, and
	// bit-identity makes the substitution invisible in results.
	SeqDegrades uint64
}

// Stats returns the process-wide engine counters since start.
func Stats() Counters {
	return Counters{
		PoolRuns:    counters.poolRuns.Load(),
		PoolJobs:    counters.poolJobs.Load(),
		SpecCommits: counters.specCommits.Load(),
		SpecRepairs: counters.specRepairs.Load(),
		SeqDegrades: counters.seqDegrades.Load(),
	}
}

// effectiveWorkers caps a requested worker count at 1 when the process
// has a single scheduling CPU. Under GOMAXPROCS=1 the pool's goroutines
// time-slice one P, so speculation work that loses the commit walk is
// pure overhead — and the engine's bit-identity contract means the
// sequential path returns exactly the same results. Each degraded call
// is counted (SeqDegrades) so the substitution stays observable.
func effectiveWorkers(workers int) int {
	if workers > 1 && runtime.GOMAXPROCS(0) == 1 {
		counters.seqDegrades.Add(1)
		return 1
	}
	return workers
}

// EmbedMany embeds n local watermarks exactly like schedwm.EmbedMany —
// same watermarks, same temporal edges in the same insertion order, same
// errors — using up to workers concurrent speculations per round.
// workers <= 1 runs the sequential implementation directly.
func EmbedMany(g *cdfg.Graph, sig prng.Signature, cfg schedwm.Config, n, workers int) ([]*schedwm.Watermark, error) {
	return EmbedManyCtx(context.Background(), g, sig, cfg, n, workers)
}

// EmbedManyCtx is EmbedMany under a context: when ctx carries an
// obs.Trace the embedding records child spans — the pool-wide
// speculation pre-pass, one span per watermark locality, and the commit
// walk with its commit/repair split. Without a trace it is EmbedMany
// exactly (nil-span operations compile down to pointer checks).
func EmbedManyCtx(ctx context.Context, g *cdfg.Graph, sig prng.Signature, cfg schedwm.Config, n, workers int) ([]*schedwm.Watermark, error) {
	ctx, embedSpan := obs.StartSpan(ctx, "engine.embed")
	defer embedSpan.Finish()
	workers = effectiveWorkers(workers)
	embedSpan.SetAttr("n", n)
	embedSpan.SetAttr("workers", workers)
	if workers <= 1 || n <= 1 {
		return schedwm.EmbedMany(g, sig, cfg, n)
	}
	ncfg, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	// Mirror the sequential prologue (and its error order): master stream
	// first, shared analyses second.
	master, err := prng.NewBitstream(sig)
	if err != nil {
		return nil, err
	}
	an, err := schedwm.Prepare(g, ncfg)
	if err != nil {
		return nil, fmt.Errorf("schedwm: embedded 0 of %d watermarks: %v", n, err)
	}

	// Precompute the master stream's root-pick sequence. PickRoot reads
	// only the static node/data-edge structure, which embedding never
	// changes, so the sequence sequential embedding would draw lazily can
	// be drawn here in full: n watermarks consume at most MaxTries picks
	// each. A watermark's picks are then roots[offset:offset+MaxTries],
	// where offset counts the picks of the watermarks before it.
	var roots []cdfg.NodeID
	if ncfg.Root == nil {
		eligible := domain.EligibleRoots(g)
		roots = make([]cdfg.NodeID, 0, n*ncfg.MaxTries)
		for i := 0; i < n*ncfg.MaxTries; i++ {
			r, err := domain.PickFrom(eligible, master)
			if err != nil {
				// No eligible root exists (a static property): replay
				// sequentially for the identical per-index error.
				return schedwm.EmbedMany(g, sig, cfg, n)
			}
			roots = append(roots, r)
		}
	}

	wms := make([]*schedwm.Watermark, n)
	errs := make([]error, n)

	// Phase 1 — hint pre-pass: speculate every watermark concurrently
	// against one snapshot, assuming first-try success everywhere (index
	// i's pick offset = i). The assumption is wrong wherever an earlier
	// watermark retries, but a speculation is reusable at the true offset
	// as long as the root values it consumed are the same there —
	// embedding is a pure function of (graph, sig, index, consumed roots).
	type slot struct {
		spec       *schedwm.Spec
		offset     int // pick offset the spec was computed at
		deltaStart int // len(committed) when its snapshot was taken
	}
	slots := make([]slot, n)
	var committed []cdfg.Edge // temporal edges committed so far, in order

	tr := obs.TraceFrom(ctx)
	snap := g.Clone()
	_, specSpan := obs.StartSpan(ctx, "engine.speculate")
	runPool(workers, n, func(idx int) {
		var locSpan *obs.Span
		if tr != nil {
			locSpan = tr.StartSpan(specSpan, fmt.Sprintf("engine.embed.wm[%d]", idx))
		}
		var rs []cdfg.NodeID
		if ncfg.Root == nil {
			rs = roots[idx : idx+ncfg.MaxTries]
		}
		slots[idx] = slot{spec: schedwm.EmbedSpec(snap, sig, ncfg, idx, an, rs), offset: idx}
		locSpan.Finish()
	})
	specSpan.Finish()

	// usable reports whether a speculation replays identically when the
	// sequential embedder reaches it at pick offset at.
	usable := func(sl slot, at int) bool {
		if sl.spec == nil {
			return false
		}
		if ncfg.Root != nil || sl.offset == at {
			return true
		}
		for i := 0; i < sl.spec.Picks; i++ {
			if roots[sl.offset+i] != roots[at+i] {
				return false
			}
		}
		return true
	}

	// Phase 2 — commit walk in signature-index order. A speculation
	// commits if it consumed the right roots and replays identically over
	// the edges committed after its snapshot; anything else is repaired
	// inline by embedding directly on the live graph at the true offset,
	// which IS the sequential computation (no validation needed). Total
	// work is therefore bounded by one speculation plus at most one
	// sequential embedding per watermark, regardless of conflict rate.
	_, commitSpan := obs.StartSpan(ctx, "engine.commit")
	commits, repairs := 0, 0
	trueOff := 0
	for idx := 0; idx < n; idx++ {
		sp := slots[idx].spec
		if !usable(slots[idx], trueOff) ||
			!sp.Valid(g, ncfg, an, committed[slots[idx].deltaStart:]) {
			counters.specRepairs.Add(1)
			repairs++
			var rs []cdfg.NodeID
			if ncfg.Root == nil {
				rs = roots[trueOff : trueOff+ncfg.MaxTries]
			}
			sp = schedwm.EmbedSpec(g, sig, ncfg, idx, an, rs)
		} else {
			counters.specCommits.Add(1)
			commits++
		}
		trueOff += sp.Picks
		if sp.Err != nil {
			errs[idx] = sp.Err
		} else {
			if err := schedwm.CommitEdges(g, sp.WM); err != nil {
				return nil, err
			}
			wms[idx] = sp.WM
			committed = append(committed, sp.WM.Edges...)
		}
	}
	commitSpan.SetAttr("commits", commits)
	commitSpan.SetAttr("repairs", repairs)
	commitSpan.Finish()

	var out []*schedwm.Watermark
	var lastErr error
	for idx := 0; idx < n; idx++ {
		if wms[idx] != nil {
			out = append(out, wms[idx])
		} else if errs[idx] != nil {
			lastErr = errs[idx]
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("schedwm: embedded 0 of %d watermarks: %v", n, lastErr)
	}
	return out, nil
}

// Suspect pairs a design with the schedule it ships under, the unit
// detection and verification operate on.
type Suspect struct {
	Graph    *cdfg.Graph
	Schedule *sched.Schedule
}

// DetectResult is the outcome of one suspect×record detection.
type DetectResult struct {
	Det *schedwm.Detection
	Err error
}

// DetectBatch runs schedwm.Detect for every suspect×record pair on a
// worker pool: out[i][j] is the result for suspects[i] against recs[j].
// Detection only reads the suspect graph (concurrent window queries share
// its PathOracle), so one Suspect may appear under many records at once.
func DetectBatch(suspects []Suspect, recs []schedwm.Record, workers int) [][]DetectResult {
	return DetectBatchCtx(context.Background(), suspects, recs, workers)
}

// DetectBatchCtx is DetectBatch under a context: with an obs.Trace
// attached, the pool fan-out and each suspect×record scan record spans.
func DetectBatchCtx(ctx context.Context, suspects []Suspect, recs []schedwm.Record, workers int) [][]DetectResult {
	out := make([][]DetectResult, len(suspects))
	for i := range out {
		out[i] = make([]DetectResult, len(recs))
	}
	if len(suspects) == 0 || len(recs) == 0 {
		return out
	}
	_, batchSpan := obs.StartSpan(ctx, "engine.detect_batch")
	defer batchSpan.Finish()
	workers = effectiveWorkers(workers)
	batchSpan.SetAttr("suspects", len(suspects))
	batchSpan.SetAttr("records", len(recs))
	tr := obs.TraceFrom(ctx)
	scan := func(i, j int) {
		var span *obs.Span
		if tr != nil {
			span = tr.StartSpan(batchSpan, fmt.Sprintf("engine.detect[%d][%d]", i, j))
		}
		det, err := schedwm.Detect(suspects[i].Graph, suspects[i].Schedule, recs[j])
		out[i][j] = DetectResult{Det: det, Err: err}
		span.Finish()
	}
	if workers <= 1 {
		for i := range suspects {
			for j := range recs {
				scan(i, j)
			}
		}
		return out
	}
	runPool(workers, len(suspects)*len(recs), func(job int) {
		scan(job/len(recs), job%len(recs))
	})
	return out
}

// VerifyOwnership mirrors schedwm.VerifyOwnership — re-derive the claimed
// watermarks on a clone of the suspect design, then check every re-derived
// constraint against the suspect schedule — with the re-derivation run on
// the parallel embedding engine.
func VerifyOwnership(g *cdfg.Graph, s *sched.Schedule, sig prng.Signature,
	cfg schedwm.Config, n, workers int) (*schedwm.Detection, error) {
	return VerifyOwnershipCtx(context.Background(), g, s, sig, cfg, n, workers)
}

// VerifyOwnershipCtx is VerifyOwnership under a context: with an
// obs.Trace attached, the re-derivation and constraint check record
// spans (the re-derivation nests the full engine.embed span tree).
func VerifyOwnershipCtx(ctx context.Context, g *cdfg.Graph, s *sched.Schedule, sig prng.Signature,
	cfg schedwm.Config, n, workers int) (*schedwm.Detection, error) {
	ctx, span := obs.StartSpan(ctx, "engine.verify")
	defer span.Finish()
	if effectiveWorkers(workers) <= 1 {
		return schedwm.VerifyOwnership(g, s, sig, cfg, n)
	}
	if len(s.Steps) != g.Len() {
		return nil, fmt.Errorf("schedwm: schedule covers %d nodes, graph has %d", len(s.Steps), g.Len())
	}
	wms, err := EmbedManyCtx(ctx, g.Clone(), sig, cfg, n, workers)
	if err != nil {
		return nil, fmt.Errorf("schedwm: re-deriving constraints: %v", err)
	}
	_, checkSpan := obs.StartSpan(ctx, "engine.check_constraints")
	defer checkSpan.Finish()
	return schedwm.CheckConstraints(g, s, wms)
}

// VerifyBatch adjudicates one ownership claim against many suspects,
// fanning the per-suspect verifications out across the pool. out[i] is the
// claim checked against suspects[i].
func VerifyBatch(suspects []Suspect, sig prng.Signature, cfg schedwm.Config, n, workers int) []DetectResult {
	out := make([]DetectResult, len(suspects))
	if len(suspects) == 0 {
		return out
	}
	workers = effectiveWorkers(workers)
	perCall := 1
	if workers > len(suspects) {
		// Fewer suspects than workers: spend the surplus inside each
		// re-derivation instead of leaving it idle.
		perCall = workers / len(suspects)
	}
	runPool(workers, len(suspects), func(i int) {
		det, err := VerifyOwnership(suspects[i].Graph, suspects[i].Schedule, sig, cfg, n, perCall)
		out[i] = DetectResult{Det: det, Err: err}
	})
	return out
}

// runPool executes run(0..jobs-1) on up to workers goroutines and waits
// for completion. Job order across workers is unspecified; callers own any
// ordering guarantees (the engine's entry points assemble results by
// index, never by completion).
func runPool(workers, jobs int, run func(job int)) {
	if jobs <= 0 {
		return
	}
	counters.poolRuns.Add(1)
	counters.poolJobs.Add(uint64(jobs))
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			run(j)
		}
		return
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				run(j)
			}
		}()
	}
	for j := 0; j < jobs; j++ {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

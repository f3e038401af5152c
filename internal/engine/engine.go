// Package engine is the traced entry point to localwm's scheduling-
// watermark drivers and the one worker pool their fan-outs share.
//
// Embedding and ownership verification run the sequential code in
// internal/schedwm: watermark i is drawn against the temporal edges of
// watermarks 0..i-1 and its roots come from one master bitstream, so the
// chain has no parallelism to exploit. EmbedManyCtx and
// VerifyOwnershipCtx only add their trace spans.
//
// The fan-outs with independent jobs run on RunPool: DetectBatch scans
// suspect×record pairs (detection only reads the suspect, and concurrent
// queries share its PathOracle), and the robustness campaign grid
// (internal/robust) runs its attack units. Each job writes its own
// result slot, so results are identical at every worker count and under
// any GOMAXPROCS.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"localwm/internal/cdfg"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
)

// Process-wide engine counters, exported for the lwmd daemon's metrics.
// All monotonic; consumers difference snapshots for rates.
var counters struct {
	poolRuns atomic.Uint64 // worker-pool fan-outs started
	poolJobs atomic.Uint64 // jobs executed across all fan-outs
}

// Counters is a snapshot of the engine's cumulative activity.
type Counters struct {
	// PoolRuns and PoolJobs count worker-pool fan-outs and the jobs they
	// executed (a fan-out with one worker still counts its jobs).
	PoolRuns, PoolJobs uint64
}

// Stats returns the process-wide engine counters since start.
func Stats() Counters {
	return Counters{
		PoolRuns: counters.poolRuns.Load(),
		PoolJobs: counters.poolJobs.Load(),
	}
}

// EmbedManyCtx is schedwm.EmbedMany under an engine.embed span, which
// records n when ctx carries an obs.Trace.
func EmbedManyCtx(ctx context.Context, g *cdfg.Graph, sig prng.Signature, cfg schedwm.Config, n int) ([]*schedwm.Watermark, error) {
	_, span := obs.StartSpan(ctx, "engine.embed")
	defer span.Finish()
	span.SetAttr("n", n)
	return schedwm.EmbedMany(g, sig, cfg, n)
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
	batchSpan.SetAttr("suspects", len(suspects))
	batchSpan.SetAttr("records", len(recs))
	tr := obs.TraceFrom(ctx)
	RunPool(workers, len(suspects)*len(recs), func(job int) {
		i, j := job/len(recs), job%len(recs)
		var span *obs.Span
		if tr != nil {
			span = tr.StartSpan(batchSpan, fmt.Sprintf("engine.detect[%d][%d]", i, j))
		}
		det, err := schedwm.Detect(suspects[i].Graph, suspects[i].Schedule, recs[j])
		out[i][j] = DetectResult{Det: det, Err: err}
		span.Finish()
	})
	return out
}

// VerifyOwnershipCtx is schedwm.VerifyOwnership under an engine.verify
// span.
func VerifyOwnershipCtx(ctx context.Context, g *cdfg.Graph, s *sched.Schedule, sig prng.Signature,
	cfg schedwm.Config, n int) (*schedwm.Detection, error) {
	_, span := obs.StartSpan(ctx, "engine.verify")
	defer span.Finish()
	return schedwm.VerifyOwnership(g, s, sig, cfg, n)
}

// RunPool executes run(0..jobs-1) on up to workers goroutines and returns
// once every job has finished and every goroutine it started has exited.
// Job order across workers is unspecified, so run must write only its
// own job's result slot; callers assemble results by index, never by
// completion. workers <= 1 runs the jobs in order on the caller's
// goroutine.
func RunPool(workers, jobs int, run func(job int)) {
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

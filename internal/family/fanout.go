package family

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"localwm/internal/obs"
	"localwm/lwmapi"
)

// Process-wide fan-out counters, exported for the lwmd daemon's
// lwmd_engine_pool_* metric families. Monotonic; consumers difference
// snapshots for rates.
var pool struct {
	runs atomic.Uint64 // fan-outs started
	jobs atomic.Uint64 // jobs executed across all fan-outs
}

// PoolCounters is a snapshot of RunPool's cumulative activity.
type PoolCounters struct {
	// PoolRuns and PoolJobs count fan-outs and the jobs they executed (a
	// fan-out with one worker still counts its jobs).
	PoolRuns, PoolJobs uint64
}

// PoolStats returns the process-wide fan-out counters since start.
func PoolStats() PoolCounters {
	return PoolCounters{PoolRuns: pool.runs.Load(), PoolJobs: pool.jobs.Load()}
}

// RunPool executes run(0..jobs-1) on up to workers goroutines and returns
// once every job has finished and every goroutine it started has exited.
// It carries the fan-outs whose jobs are independent: every family's
// suspect×record detect grid and the robustness campaign grid
// (internal/robust). Job order across workers is unspecified, so run
// must write only its own job's result slot; callers assemble results by
// index, never by completion, which keeps results identical at every
// worker count and under any GOMAXPROCS. workers <= 1 runs the jobs in
// order on the caller's goroutine.
//
// A job that panics does not stop the others: every job still runs, and
// RunPool then re-panics the first recovered value on the caller's
// goroutine, where the caller's own recover (the server's admission
// queue, say) can catch it.
func RunPool(workers, jobs int, run func(job int)) {
	if jobs <= 0 {
		return
	}
	pool.runs.Add(1)
	pool.jobs.Add(uint64(jobs))
	if workers > jobs {
		workers = jobs
	}
	var (
		mu    sync.Mutex
		first any // the first recovered panic value
	)
	// Runs after every job has finished and every worker has exited.
	defer func() {
		if first != nil {
			panic(first)
		}
	}()
	do := func(j int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				if first == nil {
					first = v
				}
				mu.Unlock()
			}
		}()
		run(j)
	}
	if workers <= 1 {
		for j := 0; j < jobs; j++ {
			do(j)
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
				do(j)
			}
		}()
	}
	for j := 0; j < jobs; j++ {
		ch <- j
	}
	close(ch)
	wg.Wait()
}

// detect is the detect loop every protocol's Detect runs; scan is the
// family's part, one suspect scanned for one record, with a per-pair
// failure in the outcome's Error field. Each local watermark is
// detectable on its own and a scan only reads its suspect (concurrent
// scans of one cdfg suspect share its PathOracle and ordering memo), so
// the suspect×record grid fans out on RunPool under an
// engine.detect_batch span, one engine.detect[i][j] span per pair, and
// outcome [i][j] is records[j] scanned in suspects[i] at every worker
// count. Privately owned cdfg suspects report their oracle recomputes to
// the trace first (see ObserveGraph).
func detect(ctx context.Context, suspects []Suspect, records []lwmapi.Record, workers int,
	scan func(Suspect, lwmapi.Record) lwmapi.DetectOutcome) *lwmapi.DetectResponse {
	resp := &lwmapi.DetectResponse{Results: make([][]lwmapi.DetectOutcome, len(suspects))}
	for i, sp := range suspects {
		resp.Results[i] = make([]lwmapi.DetectOutcome, len(records))
		if g, ok := CDFG(sp.Design); ok && !sp.Shared {
			ObserveGraph(ctx, g)
		}
	}
	if len(suspects) == 0 || len(records) == 0 {
		return resp
	}
	_, batch := obs.StartSpan(ctx, "engine.detect_batch")
	defer batch.Finish()
	batch.SetAttr("suspects", len(suspects))
	batch.SetAttr("records", len(records))
	tr := obs.TraceFrom(ctx)
	RunPool(workers, len(suspects)*len(records), func(job int) {
		i, j := job/len(records), job%len(records)
		var span *obs.Span
		if tr != nil {
			span = tr.StartSpan(batch, fmt.Sprintf("engine.detect[%d][%d]", i, j))
		}
		resp.Results[i][j] = scan(suspects[i], records[j])
		span.Finish()
	})
	for _, row := range resp.Results {
		for _, out := range row {
			if out.Found {
				resp.Detected++
			}
		}
	}
	return resp
}

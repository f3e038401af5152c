package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/engine"
	"localwm/internal/family"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// testDesigns is the cross-section the determinism properties run over:
// every structural regime the registry has — cascades, controllers,
// filters, the large D/A converter, and a layered MediaBench graph.
func testDesigns(t *testing.T) map[string]*cdfg.Graph {
	t.Helper()
	out := map[string]*cdfg.Graph{
		"iir4": designs.FourthOrderParallelIIR(),
	}
	for _, row := range designs.Table2() {
		if row.Name == "Long Echo Canceler" && testing.Short() {
			continue
		}
		out[row.Name] = row.Build()
	}
	out["mediabench1"] = designs.Layered(designs.MediaBench()[1].Cfg)
	return out
}

func dump(t *testing.T, g *cdfg.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// TestEmbedBitIdenticalAcrossWorkerCounts: for every worker count the
// daemon can hand the scheduling family, family.SchedConfig builds the
// same config, and the traced entry point embeds byte-for-byte the
// marked design and the watermarks schedwm.EmbedMany does.
func TestEmbedBitIdenticalAcrossWorkerCounts(t *testing.T) {
	p := lwmapi.MarkParams{N: 8, Tau: 14, K: 3, Epsilon: 0.2}
	for name, g := range testDesigns(t) {
		t.Run(name, func(t *testing.T) {
			ref := g.Clone()
			refCfg, err := family.SchedConfig(ref, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := schedwm.EmbedMany(ref, prng.Signature("alice"), refCfg, p.N)
			wantDump := dump(t, ref)
			for _, workers := range []int{1, 2, 8} {
				got := g.Clone()
				cfg, err := family.SchedConfig(got, p, workers)
				if err != nil {
					t.Fatal(err)
				}
				ctx := obs.WithTrace(context.Background(), obs.NewTrace("embed"))
				wms, err := engine.EmbedManyCtx(ctx, got, prng.Signature("alice"), cfg, p.N)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d: err %v, sequential err %v", workers, err, wantErr)
				}
				if err != nil {
					if err.Error() != wantErr.Error() {
						t.Fatalf("workers=%d: err %q, sequential %q", workers, err, wantErr)
					}
					continue
				}
				if !reflect.DeepEqual(wms, want) {
					t.Errorf("workers=%d: watermarks differ from sequential", workers)
				}
				if gotDump := dump(t, got); !bytes.Equal(gotDump, wantDump) {
					t.Errorf("workers=%d: marked design differs from sequential", workers)
				}
			}
		})
	}
}

// TestEmbedErrorsIdentical checks the failure surface: invalid configs and
// impossible embeddings must fail with the sequential error text.
func TestEmbedErrorsIdentical(t *testing.T) {
	g := designs.ModemFilter()
	ctx := context.Background()
	cases := []schedwm.Config{
		{Tau: 0, K: 3, Epsilon: 0.2},             // invalid τ
		{Tau: 10, K: 3, Epsilon: 0.2, Budget: 1}, // budget below critical path
		{Tau: 10, K: 3, Epsilon: 2},              // ε out of range
	}
	for i, cfg := range cases {
		_, wantErr := schedwm.EmbedMany(g.Clone(), prng.Signature("alice"), cfg, 3)
		_, err := engine.EmbedManyCtx(ctx, g.Clone(), prng.Signature("alice"), cfg, 3)
		if wantErr == nil || err == nil {
			t.Fatalf("case %d: expected errors, got %v / %v", i, wantErr, err)
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("case %d: err %q, sequential %q", i, err, wantErr)
		}
	}
	if _, err := engine.EmbedManyCtx(ctx, g.Clone(), prng.Signature(""), schedwm.Config{Tau: 10, K: 3, Epsilon: 0.2}, 3); err == nil {
		t.Fatalf("empty signature must fail like the sequential path")
	}
}

// markedSuspect embeds and schedules one suspect design for the detection
// tests.
func markedSuspect(t *testing.T, g *cdfg.Graph, sig string, n int) (engine.Suspect, []schedwm.Record, schedwm.Config) {
	t.Helper()
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatalf("critical path: %v", err)
	}
	cfg := schedwm.Config{Tau: 14, K: 3, Epsilon: 0.1, Budget: cp + cp/2 + 2}
	wms, err := schedwm.EmbedMany(g, prng.Signature(sig), cfg, n)
	if err != nil {
		t.Fatalf("embed: %v", err)
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	recs := make([]schedwm.Record, len(wms))
	for i, wm := range wms {
		recs[i] = wm.Record()
	}
	return engine.Suspect{Graph: g, Schedule: s}, recs, cfg
}

// TestDetectBatchMatchesSequential fans detection out across suspects and
// records and compares every cell against a direct schedwm.Detect call,
// at one and at four workers under one and two scheduling CPUs.
func TestDetectBatchMatchesSequential(t *testing.T) {
	susA, recsA, _ := markedSuspect(t, designs.WaveletFilter(), "alice", 3)
	susB, recsB, _ := markedSuspect(t, designs.ModemFilter(), "bob", 3)
	suspects := []engine.Suspect{susA, susB}
	recs := append(append([]schedwm.Record{}, recsA...), recsB...)

	for _, procs := range []int{1, 2} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, workers := range []int{1, 4} {
			got := engine.DetectBatch(suspects, recs, workers)
			for i, sus := range suspects {
				for j, rec := range recs {
					want, wantErr := schedwm.Detect(sus.Graph, sus.Schedule, rec)
					cell := got[i][j]
					if (cell.Err == nil) != (wantErr == nil) {
						t.Fatalf("GOMAXPROCS=%d workers=%d cell %d,%d: err %v, sequential %v",
							procs, workers, i, j, cell.Err, wantErr)
					}
					if wantErr == nil && !reflect.DeepEqual(cell.Det, want) {
						t.Errorf("GOMAXPROCS=%d workers=%d cell %d,%d: detection differs from sequential",
							procs, workers, i, j)
					}
				}
			}
			// Own-signature records must be found. (Cross-signature cells
			// are not asserted: a short record can be satisfied by
			// coincidence — exactly the case Detection.Convincing
			// discounts.)
			for i := range suspects {
				for j := range recs {
					if own := (i == 0) == (j < len(recsA)); own && !got[i][j].Det.Found {
						t.Errorf("cell %d,%d: own watermark not found", i, j)
					}
				}
			}
		}
	}
}

// TestConcurrentDetectSharedGraph is the race stress test: many goroutines
// detect against one shared suspect graph (and its shared PathOracle)
// while others verify ownership, all without cloning — as concurrent
// daemon requests do on a registry design. Run under -race.
func TestConcurrentDetectSharedGraph(t *testing.T) {
	g := designs.LinearGEController()
	sus, recs, cfg := markedSuspect(t, g, "alice", 4)
	want := make([]*schedwm.Detection, len(recs))
	for i, rec := range recs {
		var err error
		want[i], err = schedwm.Detect(sus.Graph, sus.Schedule, rec)
		if err != nil {
			t.Fatalf("detect %d: %v", i, err)
		}
	}
	wantVerify, err := schedwm.VerifyOwnership(sus.Graph, sus.Schedule, prng.Signature("alice"), cfg, 4)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}

	const goroutines = 8
	const iters = 5
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*iters)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if w%2 == 0 {
					rec := recs[(w+it)%len(recs)]
					det, err := schedwm.Detect(sus.Graph, sus.Schedule, rec)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(det, want[(w+it)%len(recs)]) {
						errc <- fmt.Errorf("goroutine %d: detection diverged", w)
						return
					}
				} else {
					det, err := engine.VerifyOwnershipCtx(context.Background(), sus.Graph, sus.Schedule, prng.Signature("alice"), cfg, 4)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(det, wantVerify) {
						errc <- fmt.Errorf("goroutine %d: verification diverged", w)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestVerifyOwnershipMatchesSequential compares the traced entry point's
// verification against the sequential one, for both a true and a false
// claim.
func TestVerifyOwnershipMatchesSequential(t *testing.T) {
	g := designs.WaveletFilter()
	sus, _, cfg := markedSuspect(t, g, "alice", 3)
	for _, sig := range []string{"alice", "mallory"} {
		want, wantErr := schedwm.VerifyOwnership(sus.Graph, sus.Schedule, prng.Signature(sig), cfg, 3)
		ctx := obs.WithTrace(context.Background(), obs.NewTrace("verify"))
		got, err := engine.VerifyOwnershipCtx(ctx, sus.Graph, sus.Schedule, prng.Signature(sig), cfg, 3)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("sig %q: err %v, sequential %v", sig, err, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("sig %q: verification diverged", sig)
		}
	}
}

// TestStatsCounters checks the process-wide activity counters the lwmd
// daemon surfaces. Counters are global and monotone, so the test asserts
// deltas around its own work rather than absolute values.
func TestStatsCounters(t *testing.T) {
	sus, recs, _ := markedSuspect(t, designs.FourthOrderParallelIIR(), "counter", 6)
	for _, workers := range []int{1, 4} {
		before := engine.Stats()
		engine.DetectBatch([]engine.Suspect{sus}, recs, workers)
		after := engine.Stats()
		if after.PoolRuns != before.PoolRuns+1 {
			t.Fatalf("workers=%d: PoolRuns %d -> %d, want one fan-out", workers, before.PoolRuns, after.PoolRuns)
		}
		if after.PoolJobs < before.PoolJobs+uint64(len(recs)) {
			t.Fatalf("workers=%d: PoolJobs advanced %d, want >= %d",
				workers, after.PoolJobs-before.PoolJobs, len(recs))
		}
	}
}

// TestRunPoolJoinsWorkers runs every job exactly once at each width and
// checks that the goroutine count settles back to where it started once
// RunPool returns: the pool joins every worker it starts.
func TestRunPoolJoinsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{0, 1, 4, 64} {
		var mu sync.Mutex
		seen := make(map[int]int)
		engine.RunPool(workers, 50, func(job int) {
			mu.Lock()
			seen[job]++
			mu.Unlock()
		})
		for job := 0; job < 50; job++ {
			if seen[job] != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, job, seen[job])
			}
		}
		settle(t, base)
	}
}

// settle waits until the goroutine count is back at base, failing after
// a second. A worker has called wg.Done before it exits, so the count
// can briefly trail RunPool's return.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, started with %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

package family_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/family"
	"localwm/internal/obs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// testDesigns is the cross-section the scheduling determinism
// properties run over: every structural regime the registry has —
// cascades, controllers, filters, the large D/A converter, and a layered
// MediaBench graph.
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

func dump(t *testing.T, g *cdfg.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.String()
}

func lookup(t *testing.T, name string) family.Protocol {
	t.Helper()
	proto, err := family.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// parseCDFG parses design text as the scheduling family does and returns
// the design with its graph.
func parseCDFG(t *testing.T, text string) (family.Design, *cdfg.Graph) {
	t.Helper()
	d, err := lookup(t, lwmapi.FamilySched).ParseDesign(text)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := family.CDFG(d)
	return d, g
}

// TestEmbedBitIdenticalAcrossWorkerCounts: at every worker count the
// daemon can hand the scheduling family, its Embed answers byte for byte
// the marked design and the records schedwm.EmbedMany produces under
// the config family.SchedConfig builds.
func TestEmbedBitIdenticalAcrossWorkerCounts(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	p := lwmapi.MarkParams{N: 8, Tau: 14, K: 3, Epsilon: 0.2}
	for name, g := range testDesigns(t) {
		t.Run(name, func(t *testing.T) {
			text := dump(t, g)
			_, ref := parseCDFG(t, text)
			refCfg, err := family.SchedConfig(ref, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := schedwm.EmbedMany(ref, prng.Signature("alice"), refCfg, p.N)
			wantDump := dump(t, ref)
			for _, workers := range []int{1, 2, 8} {
				d, _ := parseCDFG(t, text)
				ctx := obs.WithTrace(context.Background(), obs.NewTrace("embed"))
				resp, err := proto.Embed(ctx, d, "alice", p, workers)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d: err %v, sequential err %v", workers, err, wantErr)
				}
				if err != nil {
					if err.Error() != "embedding: "+wantErr.Error() {
						t.Fatalf("workers=%d: err %q, sequential %q", workers, err, wantErr)
					}
					continue
				}
				recs := make([]lwmapi.Record, len(want))
				for i, wm := range want {
					recs[i] = lwmapi.FromSchedRecord(wm.Record())
				}
				if resp.Watermarks != len(want) || !reflect.DeepEqual(resp.Records, recs) {
					t.Errorf("workers=%d: watermarks differ from sequential", workers)
				}
				if resp.MarkedDesign != wantDump {
					t.Errorf("workers=%d: marked design differs from sequential", workers)
				}
			}
		})
	}
}

// TestEmbedErrorsIdentical checks the failure surface: invalid configs
// and impossible embeddings fail with schedwm's error text.
func TestEmbedErrorsIdentical(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	text := dump(t, designs.ModemFilter())
	_, g := parseCDFG(t, text)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []lwmapi.MarkParams{
		{N: 3, Tau: 0, K: 3, Epsilon: 0.2},             // invalid τ
		{N: 3, Tau: 10, K: 3, Epsilon: 0.2, Budget: 1}, // budget below critical path
		{N: 3, Tau: 10, K: 3, Epsilon: 2},              // ε out of range
	}
	for i, p := range cases {
		cfg := schedwm.Config{Tau: p.Tau, K: p.K, Epsilon: p.Epsilon, Budget: p.Budget}
		if cfg.Budget == 0 {
			cfg.Budget = cp + cp/10 + 1
		}
		_, wantErr := schedwm.EmbedMany(g.Clone(), prng.Signature("alice"), cfg, p.N)
		d, _ := parseCDFG(t, text)
		_, err := proto.Embed(ctx, d, "alice", p, 1)
		if wantErr == nil || err == nil {
			t.Fatalf("case %d: expected errors, got %v / %v", i, wantErr, err)
		}
		if !strings.HasSuffix(err.Error(), wantErr.Error()) {
			t.Fatalf("case %d: err %q, sequential %q", i, err, wantErr)
		}
	}
	d, _ := parseCDFG(t, text)
	if _, err := proto.Embed(ctx, d, "", lwmapi.MarkParams{N: 3, Tau: 10, K: 3, Epsilon: 0.2}, 1); err == nil {
		t.Fatalf("empty signature must fail like the sequential path")
	}
}

// schedSuspect is a marked, scheduled scheduling-family suspect, parsed
// the way the daemon parses one, with the records and config of its
// embedding.
type schedSuspect struct {
	sp    family.Suspect
	g     *cdfg.Graph
	s     *sched.Schedule
	recs  []schedwm.Record
	cfg   schedwm.Config
	param lwmapi.MarkParams
}

// wire returns the suspect's records as the wire carries them.
func (m schedSuspect) wire() []lwmapi.Record {
	out := make([]lwmapi.Record, len(m.recs))
	for i, rec := range m.recs {
		out[i] = lwmapi.FromSchedRecord(rec)
	}
	return out
}

// markedSuspect embeds n watermarks into g, list-schedules the marked
// design, and parses both back through the scheduling family.
func markedSuspect(t *testing.T, g *cdfg.Graph, sig string, n int) schedSuspect {
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
	var schedText bytes.Buffer
	if err := sched.WriteSchedule(&schedText, g, s); err != nil {
		t.Fatal(err)
	}
	d, pg := parseCDFG(t, dump(t, g))
	sol, err := lookup(t, lwmapi.FamilySched).ParseSolution(d, schedText.String())
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]schedwm.Record, len(wms))
	for i, wm := range wms {
		recs[i] = wm.Record()
	}
	return schedSuspect{
		sp: family.Suspect{Design: d, Solution: sol}, g: pg, s: sol.(*sched.Schedule),
		recs: recs, cfg: cfg,
		param: lwmapi.MarkParams{N: n, Tau: cfg.Tau, K: cfg.K, Epsilon: cfg.Epsilon, Budget: cfg.Budget},
	}
}

// schedOutcome is the outcome the scheduling family answers for one
// record, from a direct schedwm.Detect call.
func schedOutcome(g *cdfg.Graph, s *sched.Schedule, rec lwmapi.Record) lwmapi.DetectOutcome {
	det, err := schedwm.Detect(g, s, rec.Sched())
	if err != nil {
		return lwmapi.DetectOutcome{Error: err.Error()}
	}
	out := lwmapi.DetectOutcome{
		Found: det.Found, Satisfied: det.Best.Satisfied, Total: det.Best.Total,
		Pc: det.Best.Pc.String(), RootsTried: det.RootsTried,
	}
	if det.Found && len(det.Matches) > 0 {
		out.Root = g.Node(det.Matches[0].Root).Name
	}
	return out
}

// TestDetectBatchMatchesSequential fans the scheduling family's
// detection out across suspects and records and compares every cell
// against a direct schedwm.Detect call, at one and at four workers under
// one and two scheduling CPUs.
func TestDetectBatchMatchesSequential(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	a := markedSuspect(t, designs.WaveletFilter(), "alice", 3)
	b := markedSuspect(t, designs.ModemFilter(), "bob", 3)
	marked := []schedSuspect{a, b}
	suspects := []family.Suspect{a.sp, b.sp}
	recs := append(a.wire(), b.wire()...)

	for _, procs := range []int{1, 2} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, workers := range []int{1, 4} {
			got, err := proto.Detect(context.Background(), suspects, recs, workers)
			if err != nil {
				t.Fatal(err)
			}
			detected := 0
			for i, m := range marked {
				for j, rec := range recs {
					want := schedOutcome(m.g, m.s, rec)
					if got.Results[i][j] != want {
						t.Errorf("GOMAXPROCS=%d workers=%d cell %d,%d: %+v, sequential %+v",
							procs, workers, i, j, got.Results[i][j], want)
					}
					if want.Found {
						detected++
					}
					// Own-signature records must be found. (Cross-signature
					// cells are not asserted: a short record can be
					// satisfied by coincidence — exactly the case
					// Detection.Convincing discounts.)
					if own := (i == 0) == (j < len(a.recs)); own && !got.Results[i][j].Found {
						t.Errorf("cell %d,%d: own watermark not found", i, j)
					}
				}
			}
			if got.Detected != detected {
				t.Errorf("GOMAXPROCS=%d workers=%d: detected %d, sequential %d", procs, workers, got.Detected, detected)
			}
		}
	}
}

// TestConcurrentDetectSharedGraph is the race stress test: many
// goroutines detect against one shared suspect (and its shared
// PathOracle) while others verify ownership, all without cloning — as
// concurrent daemon requests do on a registry design. Run under -race.
func TestConcurrentDetectSharedGraph(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	m := markedSuspect(t, designs.LinearGEController(), "alice", 4)
	sp := m.sp
	sp.Shared = true
	recs := m.wire()
	ctx := context.Background()
	want := make([]lwmapi.DetectOutcome, len(recs))
	for i, rec := range recs {
		want[i] = schedOutcome(m.g, m.s, rec)
		if want[i].Error != "" {
			t.Fatalf("detect %d: %s", i, want[i].Error)
		}
	}
	wantVerify, err := proto.Verify(ctx, sp, "alice", m.param, 1)
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
					j := (w + it) % len(recs)
					det, err := proto.Detect(ctx, []family.Suspect{sp}, recs[j:j+1], 1)
					if err != nil {
						errc <- err
						return
					}
					if det.Results[0][0] != want[j] {
						errc <- fmt.Errorf("goroutine %d: detection diverged", w)
						return
					}
				} else {
					ver, err := proto.Verify(ctx, sp, "alice", m.param, 1)
					if err != nil {
						errc <- err
						return
					}
					if *ver != *wantVerify {
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

// TestVerifyOwnershipMatchesSequential compares the scheduling family's
// traced verification against schedwm.VerifyOwnership, for both a true
// and a false claim.
func TestVerifyOwnershipMatchesSequential(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	m := markedSuspect(t, designs.WaveletFilter(), "alice", 3)
	for _, sig := range []string{"alice", "mallory"} {
		det, wantErr := schedwm.VerifyOwnership(m.g, m.s, prng.Signature(sig), m.cfg, 3)
		ctx := obs.WithTrace(context.Background(), obs.NewTrace("verify"))
		got, err := proto.Verify(ctx, m.sp, sig, m.param, 1)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("sig %q: err %v, sequential %v", sig, err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		want := lwmapi.VerifyResponse{
			Verified: det.Found, Satisfied: det.Best.Satisfied, Total: det.Best.Total,
			Pc: det.Best.Pc.String(), RootsTried: det.RootsTried,
		}
		if *got != want {
			t.Fatalf("sig %q: verification diverged: %+v, sequential %+v", sig, *got, want)
		}
	}
}

// TestStatsCounters checks the process-wide pool counters the lwmd
// daemon surfaces. Counters are global and monotone, so the test asserts
// deltas around its own work rather than absolute values.
func TestStatsCounters(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	m := markedSuspect(t, designs.FourthOrderParallelIIR(), "counter", 6)
	recs := m.wire()
	for _, workers := range []int{1, 4} {
		before := family.PoolStats()
		if _, err := proto.Detect(context.Background(), []family.Suspect{m.sp}, recs, workers); err != nil {
			t.Fatal(err)
		}
		after := family.PoolStats()
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
		family.RunPool(workers, 50, func(job int) {
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

// TestRunPoolConfinesPanics: a panicking job does not stop the others,
// and its value reaches the caller's recover on the caller's goroutine —
// at every width, including the pool's own goroutines.
func TestRunPoolConfinesPanics(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4, 64} {
		var mu sync.Mutex
		seen := make(map[int]int)
		got := func() (v any) {
			defer func() { v = recover() }()
			family.RunPool(workers, 50, func(job int) {
				mu.Lock()
				seen[job]++
				mu.Unlock()
				if job == 7 {
					panic("job 7")
				}
			})
			return nil
		}()
		if got != "job 7" {
			t.Fatalf("workers=%d: recovered %v, want the job's panic value", workers, got)
		}
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

// TestDetectBatchSharedMemo fans out records whose fingerprints share
// roots over one freshly parsed suspect graph, listed as two suspects,
// so workers race to create the same memo tables and fill the same
// slots. Every cell must equal a sequential scan of another fresh parse,
// at four workers under one and two scheduling CPUs.
func TestDetectBatchSharedMemo(t *testing.T) {
	proto := lookup(t, lwmapi.FamilySched)
	g := designs.Layered(designs.MediaBench()[0].Cfg) // D/A Cnv., 528 ops
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedwm.Config{Tau: 14, K: 3, Epsilon: 0.2, Budget: cp + cp/2 + 2}
	wms, err := schedwm.EmbedMany(g, prng.Signature("alice"), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var schedText bytes.Buffer
	if err := sched.WriteSchedule(&schedText, g, s); err != nil {
		t.Fatal(err)
	}
	var recs []lwmapi.Record
	for _, wm := range wms {
		rec := wm.Record()
		recs = append(recs, lwmapi.FromSchedRecord(rec))
		// The same roots and tree bounds under other walks read the same
		// slots; another tree bound on the same roots adds a table.
		for try := 1; try <= 3; try++ {
			r := rec
			r.Try += try
			recs = append(recs, lwmapi.FromSchedRecord(r))
		}
		r := rec
		r.DomainCfg.MaxDist, r.DomainCfg.MaxTreeSize = 4, 2*rec.DomainCfg.Tau
		recs = append(recs, lwmapi.FromSchedRecord(r))
	}
	text := dump(t, g)
	fresh := func() family.Suspect {
		d, _ := parseCDFG(t, text)
		sol, err := proto.ParseSolution(d, schedText.String())
		if err != nil {
			t.Fatal(err)
		}
		return family.Suspect{Design: d, Solution: sol}
	}

	seq := fresh()
	sg, _ := family.CDFG(seq.Design)
	want := make([]lwmapi.DetectOutcome, len(recs))
	for j, rec := range recs {
		want[j] = schedOutcome(sg, seq.Solution.(*sched.Schedule), rec)
		if want[j].Error != "" {
			t.Fatal(want[j].Error)
		}
	}
	if !want[0].Found || !want[5].Found || want[1].RootsTried < 2 {
		t.Fatalf("own watermarks found %t/%t, retry record tried %d roots; want found, found, several", want[0].Found, want[5].Found, want[1].RootsTried)
	}
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			sus := fresh()
			got, err := proto.Detect(context.Background(), []family.Suspect{sus, sus}, recs, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Results {
				for j := range recs {
					if got.Results[i][j] != want[j] {
						t.Errorf("GOMAXPROCS=%d cell %d,%d: %+v, sequential %+v",
							procs, i, j, got.Results[i][j], want[j])
					}
				}
			}
		}()
	}
}

// TestDetectGridByteIdentity scans a grid of three suspects, each marked
// under its own signature, against every suspect's records for every
// family, at 1, 2 and 8 workers under one and two scheduling CPUs. The
// encoded answers must be byte-identical: the shared loop fans every
// family's grid out, and each pair writes only its own outcome. Each run
// parses its suspects afresh, so workers also race to fill cold memos.
func TestDetectGridByteIdentity(t *testing.T) {
	ctx := context.Background()
	sigs := []string{"alice", "bob", "carol"}
	for _, fam := range family.Names() {
		t.Run(fam, func(t *testing.T) {
			proto := lookup(t, fam)
			var params lwmapi.MarkParams
			proto.Normalize(&params)
			text := designTextFor(t, fam)

			// suspectTexts[i] is suspect i's design and solution text.
			var suspectTexts [][2]string
			var records []lwmapi.Record
			for _, sig := range sigs {
				d, err := proto.ParseDesign(text)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := proto.Embed(ctx, d, sig, params, 1)
				if err != nil {
					t.Fatal(err)
				}
				design := resp.MarkedDesign
				if fam == lwmapi.FamilySched {
					design = text
				}
				suspectTexts = append(suspectTexts, [2]string{design, solutionTextFor(t, proto, resp)})
				records = append(records, resp.Records...)
			}
			if len(records) < 3 {
				t.Fatalf("%d records, want at least 3", len(records))
			}

			var first string
			for _, procs := range []int{1, 2} {
				for _, workers := range []int{1, 2, 8} {
					func() {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						suspects := make([]family.Suspect, len(suspectTexts))
						for i, st := range suspectTexts {
							d, err := proto.ParseDesign(st[0])
							if err != nil {
								t.Fatal(err)
							}
							sol, err := proto.ParseSolution(d, st[1])
							if err != nil {
								t.Fatal(err)
							}
							suspects[i] = family.Suspect{Design: d, Solution: sol}
						}
						resp, err := proto.Detect(ctx, suspects, records, workers)
						if err != nil {
							t.Fatal(err)
						}
						data, err := json.Marshal(resp)
						if err != nil {
							t.Fatal(err)
						}
						if first == "" {
							first = string(data)
							if resp.Detected < len(sigs) {
								t.Fatalf("detected %d, want every suspect's own records: %s", resp.Detected, data)
							}
							return
						}
						if string(data) != first {
							t.Errorf("GOMAXPROCS=%d workers=%d: answer differs from GOMAXPROCS=1 workers=1:\n%s\n%s",
								procs, workers, data, first)
						}
					}()
				}
			}
		})
	}
}

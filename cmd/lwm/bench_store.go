package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/internal/server"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

// cmdBench benchmarks the daemon's design registry — repeat remote
// detects inline versus by reference — and writes BENCH_store.json; see
// benchStore. -store names that mode and is required, so an invocation
// written for another mode fails instead of silently measuring this one.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	n := fs.Int("n", 2, "watermarks per design")
	iters := fs.Int("iters", 3, "timing iterations (best is reported)")
	out := fs.String("o", "BENCH_store.json", "output file")
	storeMode := fs.Bool("store", false, "benchmark the design registry: repeat remote detects inline vs by reference")
	remote := fs.String("remote", "", "lwmd daemon address (empty: boot an in-process daemon)")
	apiKeyFlag(fs)
	repeats := fs.Int("repeats", 12, "detect calls per timing loop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*storeMode {
		return fmt.Errorf("bench: -store is required (it is the only benchmark mode)")
	}
	return benchStore(*remote, *n, *repeats, *iters, *out)
}

// storeBenchRow is one design's repeat-detect comparison: the same
// suspect scanned against the same records, once shipping the design
// inline on every request (the daemon re-parses and re-warms the
// longest-path oracle each time) and once by registry reference after a
// single put (the daemon reuses the cached graph and oracle).
type storeBenchRow struct {
	Design  string `json:"design"`
	Ops     int    `json:"ops"`
	Records int    `json:"records"`
	Repeats int    `json:"repeats"`
	// PutNs is the one-time registration cost the ref mode pays.
	PutNs int64 `json:"put_ns"`
	// InlineNs and RefNs are the best whole-loop wall times (Repeats
	// sequential detect calls) for each mode.
	InlineNs int64 `json:"inline_ns"`
	RefNs    int64 `json:"ref_ns"`
	// Speedup is InlineNs/RefNs: >1 means the registry paid off.
	Speedup float64 `json:"speedup"`
	// Identical confirms the two modes' detection grids were
	// byte-for-byte the same JSON — the registry is a cache, never a
	// semantic change.
	Identical bool `json:"identical"`
}

// storeBenchFile is the BENCH_store.json envelope.
type storeBenchFile struct {
	Remote  string          `json:"remote"`
	N       int             `json:"n"`
	Repeats int             `json:"repeats"`
	Iters   int             `json:"iters"`
	Rows    []storeBenchRow `json:"rows"`
}

// benchStore measures what the design registry buys on the paper's
// dominant workload — many scans of the same design: embed and schedule
// locally, then time `repeats` sequential remote detects inline versus
// by reference. With remote empty it boots an in-process daemon on a
// loopback port so the benchmark is self-contained.
func benchStore(remote string, n, repeats, iters int, out string) error {
	if remote == "" {
		srv := server.New(server.Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		remote = ln.Addr().String()
	}
	c, err := newRemoteClient(remote)
	if err != nil {
		return err
	}
	ctx := context.Background()

	type entry struct {
		name  string
		build func() *cdfg.Graph
	}
	// The large layered MediaBench design is where the registry matters
	// most: its parse + oracle warmup dwarf a single detect scan.
	mb := designs.MediaBench()[1]
	entries := []entry{
		{"4th Order Parallel IIR", designs.FourthOrderParallelIIR},
		{"Wavelet Filter", designs.WaveletFilter},
		{"Modem Filter", designs.ModemFilter},
		{"mediabench/" + mb.Name, func() *cdfg.Graph { return designs.Layered(mb.Cfg) }},
	}

	bf := storeBenchFile{Remote: remote, N: n, Repeats: repeats, Iters: iters}
	for _, e := range entries {
		g := e.build()
		cp, err := g.CriticalPath()
		if err != nil {
			return err
		}
		cfg := schedwm.Config{Tau: 14, K: 3, Epsilon: 0.1, Budget: cp + cp/2 + 2}

		// Prepare the suspect locally: marked design, its schedule, and
		// the detection records.
		work := g.Clone()
		wms, err := schedwm.EmbedMany(work, prng.Signature("alice"), cfg, n)
		if err != nil {
			return fmt.Errorf("%s: embed: %v", e.name, err)
		}
		var records []lwmclient.Record
		for _, wm := range wms {
			records = append(records, lwmapi.FromSchedRecord(wm.Record()))
		}
		var designBuf bytes.Buffer
		if err := cdfg.Write(&designBuf, work); err != nil {
			return err
		}
		s, err := sched.ListSchedule(work, sched.ListOpts{UseTemporal: true})
		if err != nil {
			return err
		}
		var schedBuf bytes.Buffer
		if err := sched.WriteSchedule(&schedBuf, work, s); err != nil {
			return err
		}
		designText, schedText := designBuf.String(), schedBuf.String()

		detect := func(sp lwmclient.Suspect) (*lwmclient.DetectResult, error) {
			res, err := c.Detect(ctx, lwmclient.DetectRequest{
				Suspects: []lwmclient.Suspect{sp}, Records: records,
			})
			if err != nil {
				return nil, err
			}
			if !res.Complete() {
				return nil, res.Failed[0]
			}
			return res, nil
		}
		timeLoop := func(sp lwmclient.Suspect) (time.Duration, *lwmclient.DetectResult, error) {
			// One untimed call first so connection setup is paid in both
			// modes before the clock starts.
			last, err := detect(sp)
			if err != nil {
				return 0, nil, err
			}
			best := time.Duration(0)
			for it := 0; it < iters; it++ {
				start := time.Now()
				for r := 0; r < repeats; r++ {
					if last, err = detect(sp); err != nil {
						return 0, nil, err
					}
				}
				if el := time.Since(start); best == 0 || el < best {
					best = el
				}
			}
			return best, last, nil
		}

		row := storeBenchRow{Design: e.name, Ops: len(g.Computational()),
			Records: len(records), Repeats: repeats}

		inlineBest, inlineRes, err := timeLoop(lwmclient.Suspect{Design: designText, Schedule: schedText})
		if err != nil {
			return fmt.Errorf("%s: inline detect: %v", e.name, err)
		}
		putStart := time.Now()
		put, err := c.PutDesign(ctx, designText)
		if err != nil {
			return fmt.Errorf("%s: put: %v", e.name, err)
		}
		row.PutNs = time.Since(putStart).Nanoseconds()
		refBest, refRes, err := timeLoop(lwmclient.Suspect{DesignRef: put.Ref, Schedule: schedText})
		if err != nil {
			return fmt.Errorf("%s: ref detect: %v", e.name, err)
		}

		inlineJSON, err := json.Marshal(inlineRes.Results)
		if err != nil {
			return err
		}
		refJSON, err := json.Marshal(refRes.Results)
		if err != nil {
			return err
		}
		row.Identical = bytes.Equal(inlineJSON, refJSON)
		row.InlineNs = inlineBest.Nanoseconds()
		row.RefNs = refBest.Nanoseconds()
		if row.RefNs > 0 {
			row.Speedup = float64(row.InlineNs) / float64(row.RefNs)
		}
		bf.Rows = append(bf.Rows, row)
		fmt.Printf("%-24s ops %4d  rec %2d  inline(x%d) %10s  ref(x%d) %10s  x%.2f  identical=%v\n",
			e.name, row.Ops, row.Records, repeats, inlineBest, repeats, refBest, row.Speedup, row.Identical)
		if !row.Identical {
			return fmt.Errorf("%s: ref-based detection diverged from inline", e.name)
		}
		if row.Speedup <= 1 {
			fmt.Printf("  note: reference mode not faster here (x%.2f) — expected only on loaded or remote hosts\n", row.Speedup)
		}
	}

	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

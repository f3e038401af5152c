// Robustness campaigns from the CLI:
//
//	lwm robust -in design.cdfg -sig <signature> [-seed S] [-battery spec.json]
//	    run the attack campaign offline: re-mark the design, execute the
//	    battery in-process, and print the report envelope — byte-identical
//	    to what a daemon answers for the same request
//	lwm robust -remote <addr> [-ref <reference>] ...
//	    run the campaign on a lwmd daemon; large campaigns (or -async) are
//	    queued, and -wait=false prints the job ID alone on stdout for
//	    scripting (collect it later with `lwm job wait`)
//
// The battery spec file holds a lwmapi.BatterySpec JSON document; absent,
// the default battery runs (perturb, crop, renumber, reschedule, host).
// The same spec file drives local, synchronous-remote, and queued-remote
// campaigns to the same report bytes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"localwm/internal/prng"
	"localwm/internal/robust"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

func cmdRobust(args []string) error {
	fs := flag.NewFlagSet("robust", flag.ExitOnError)
	in := fs.String("in", "", "design file")
	ref := fs.String("ref", "", "design registry reference instead of -in (remote only)")
	sig := fs.String("sig", "", "owner signature the watermarks derive from")
	seed := fs.String("seed", "", "campaign seed keying every attack's randomness")
	batteryPath := fs.String("battery", "", "battery spec file (BatterySpec JSON; default battery when empty)")
	n := fs.Int("n", 2, "watermarks to embed")
	tau := fs.Int("tau", 20, "constraints per watermark")
	k := fs.Int("k", 4, "locality radius")
	eps := fs.Float64("epsilon", 0.25, "laxity fraction")
	budget := fs.Int("budget", 0, "control-step budget (0: critical path + 10%)")
	workers := fs.Int("workers", 0, "campaign parallelism (0: sequential)")
	out := fs.String("o", "", "report file (default stdout)")
	remote := fs.String("remote", "", "lwmd daemon address (empty: run the campaign in-process)")
	apiKeyFlag(fs)
	async := fs.Bool("async", false, "force dispatch through the daemon's job queue (remote only)")
	wait := fs.Bool("wait", true, "block on a queued campaign; false prints the job ID alone on stdout")
	timeout := fs.Duration("timeout", 30*time.Minute, "max time to wait for a queued campaign")
	trace := fs.Bool("trace", false, "print the span tree to stderr after the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sig == "" {
		return fmt.Errorf("robust: -sig required")
	}
	if err := checkRefFlag(*ref, *remote); err != nil {
		return err
	}
	if *async && *remote == "" {
		return fmt.Errorf("robust: -async requires -remote (local campaigns always run to completion)")
	}

	battery, err := loadBattery(*batteryPath)
	if err != nil {
		return err
	}

	ctx, finish := traceCtx(*trace)
	defer finish()

	if *remote != "" {
		return remoteRobust(ctx, *remote, *in, *ref, *sig, *seed, battery,
			*n, *tau, *k, *eps, *budget, *workers, *async, *wait, *timeout, *out)
	}

	// Local mode: the same normalize → prepare → run pipeline the daemon
	// executes, with the daemon's parameter defaults, so the printed
	// envelope is byte-identical to a daemon's answer for this request.
	battery, err = robust.Normalize(battery)
	if err != nil {
		return fmt.Errorf("robust: battery: %v", err)
	}
	g, err := loadGraph(*in)
	if err != nil {
		return err
	}
	observeGraph(ctx, g)
	if *budget == 0 {
		cp, err := g.CriticalPath()
		if err != nil {
			return err
		}
		*budget = cp + cp/10 + 1
	}
	cfg := schedwm.Config{Tau: *tau, K: *k, Epsilon: *eps, Budget: *budget}
	base, err := robust.Prepare(ctx, g, prng.Signature(*sig), cfg, *n)
	if err != nil {
		return fmt.Errorf("robust: embedding: %v", err)
	}
	rep, err := robust.Run(ctx, &robust.Campaign{
		Baseline: base,
		Seed:     *seed,
		Battery:  battery,
		Workers:  *workers,
	})
	if err != nil {
		return fmt.Errorf("robust: campaign: %v", err)
	}
	fmt.Fprintf(os.Stderr, "campaign: %d localities, %d units, %d families\n",
		rep.Localities, rep.Units, len(rep.Families))
	return writeReport(*out, &lwmapi.RobustnessResponse{Report: rep})
}

// loadBattery reads a BatterySpec JSON file; an empty path selects the
// zero spec (Normalize fills in the default battery).
func loadBattery(path string) (lwmapi.BatterySpec, error) {
	var b lwmapi.BatterySpec
	if path == "" {
		return b, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("robust: parsing %s: %w", path, err)
	}
	return b, nil
}

// writeReport renders the response envelope exactly as the daemon does
// (two-space indent, trailing newline), to a file or stdout.
func writeReport(path string, v any) error {
	var f *os.File
	if path == "" {
		f = os.Stdout
	} else {
		var err error
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// remoteRobust runs the campaign on a daemon. A synchronous answer
// prints the report envelope; a queued answer either blocks for the
// result bytes (-wait, the default) or prints the job ID alone on
// stdout so scripts can collect it later.
func remoteRobust(ctx context.Context, addr, in, ref, sig, seed string, battery lwmapi.BatterySpec,
	n, tau, k int, eps float64, budget, workers int, async, wait bool, timeout time.Duration, out string) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	design, err := designSource(in, ref)
	if err != nil {
		return err
	}
	resp, err := c.RunCampaign(ctx, lwmclient.RobustnessRequest{
		Design:    design,
		DesignRef: ref,
		Signature: sig,
		MarkParams: lwmclient.MarkParams{
			N: n, Tau: tau, K: k, Epsilon: eps, Budget: budget, Workers: workers,
		},
		Seed:    seed,
		Battery: battery,
		Async:   async,
	})
	if err != nil {
		return err
	}
	if resp.Report != nil {
		fmt.Fprintf(os.Stderr, "campaign: %d localities, %d units, %d families\n",
			resp.Report.Localities, resp.Report.Units, len(resp.Report.Families))
		return writeReport(out, resp)
	}
	if resp.Job == nil {
		return fmt.Errorf("robust: daemon answered neither report nor job")
	}
	if !wait {
		fmt.Fprintf(os.Stderr, "campaign queued as job %s (%s)\n", resp.Job.ID, resp.Job.State)
		fmt.Println(resp.Job.ID)
		return nil
	}
	wctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	// The stored result bytes are the same envelope the synchronous path
	// prints; write them verbatim to keep the byte-identity contract.
	raw, err := c.WaitJobResult(wctx, resp.Job.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign job %s: done, %d result bytes\n", resp.Job.ID, len(raw))
	if out == "" {
		_, err := os.Stdout.Write(raw)
		return err
	}
	return os.WriteFile(out, raw, 0o644)
}

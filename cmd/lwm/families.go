// Family mode: embed, detect, and verify accept -family {sched|tmwm|
// gcolor} and then drive the family's protocol — in-process through the
// same internal/family registry the daemon dispatches on, or remotely
// with the family field on every envelope. Both paths shape and print
// through the same helpers below, so local and remote runs are
// byte-identical on stdout for every family, exactly as they are for the
// scheduling family's dedicated paths.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

// genGcolor writes a deterministic random graph-coloring instance: the
// seed keys the generator, so the same invocation always writes the
// same graph.
func genGcolor(seed string, nodes, density int, out string) error {
	if seed == "" {
		return fmt.Errorf("gen: -family gcolor needs -design <seed>")
	}
	if density < 0 || density > 100 {
		return fmt.Errorf("gen: -density must be a percentage, got %d", density)
	}
	g, err := gcolor.RandomGraph(seed, nodes, density, 100)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return gcolor.WriteGraph(w, g)
}

// familyFlag registers -family on a marking subcommand.
func familyFlag(fs *flag.FlagSet) *string {
	return fs.String("family", "", "watermark family: sched, tmwm, or gcolor (empty: sched; see lwm families)")
}

// markParamsFrom builds family-mode MarkParams from only the flags the
// user actually set, leaving the rest zero for the family's Normalize to
// default — the flag defaults (n=2, τ=20, …) are the scheduling
// family's and must not leak into other families.
func markParamsFrom(fs *flag.FlagSet, n, tau, k *int, eps *float64, budget *int) lwmapi.MarkParams {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var p lwmapi.MarkParams
	if set["n"] {
		p.N = *n
	}
	if set["tau"] {
		p.Tau = *tau
	}
	if set["k"] {
		p.K = *k
	}
	if set["epsilon"] {
		p.Epsilon = *eps
	}
	if set["budget"] {
		p.Budget = *budget
	}
	return p
}

// cmdFamilies lists the watermark families with their defaults and
// capability flags: the local registry, or with -remote the daemon's
// GET /v1/families answer. The two listings are identical for a daemon
// of this build — the daemon serves the same registry.
func cmdFamilies(args []string) error {
	fs := flag.NewFlagSet("families", flag.ExitOnError)
	remote := fs.String("remote", "", "lwmd daemon address (empty: list the built-in registry)")
	apiKeyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp := &lwmapi.ListFamiliesResponse{Default: lwmapi.FamilySched, Families: family.Infos()}
	if *remote != "" {
		c, err := newRemoteClient(*remote)
		if err != nil {
			return err
		}
		resp, err = c.ListFamilies(context.Background())
		if err != nil {
			return err
		}
	}
	for _, fi := range resp.Families {
		def := ""
		if fi.Name == resp.Default {
			def = " (default)"
		}
		fmt.Printf("%s%s: %s\n", fi.Name, def, fi.Description)
		d := fi.Defaults
		fmt.Printf("  defaults: n=%d tau=%d k=%d epsilon=%g budget=%d\n",
			d.N, d.Tau, d.K, d.Epsilon, d.Budget)
		c := fi.Capabilities
		fmt.Printf("  capabilities: batch=%t robustness=%t registry=%t\n",
			c.Batch, c.Robustness, c.Registry)
	}
	return nil
}

// readDesignText loads the inline design text unless a registry
// reference stands in for it (remote only, checked by checkRefFlag).
func readDesignText(in, ref string) (string, error) {
	if ref != "" {
		return "", nil
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// familyEmbed runs one non-scheduling embed, locally through the
// protocol registry or against a daemon, and prints/writes the shared
// report: marked design to out, marked solution to solPath, detection
// records (family-labeled) to recPath.
func familyEmbed(ctx context.Context, fam, remote, in, ref, sig string, params lwmapi.MarkParams, out, solPath, recPath string) error {
	var resp *lwmapi.EmbedResponse
	if remote != "" {
		c, err := newRemoteClient(remote)
		if err != nil {
			return err
		}
		design, err := readDesignText(in, ref)
		if err != nil {
			return err
		}
		resp, err = c.Embed(ctx, lwmclient.EmbedRequest{
			Family: fam, Design: design, DesignRef: ref, Signature: sig, MarkParams: params,
		})
		if err != nil {
			return err
		}
	} else {
		proto, err := family.Lookup(fam)
		if err != nil {
			return err
		}
		proto.Normalize(&params)
		text, err := readDesignText(in, ref)
		if err != nil {
			return err
		}
		d, err := proto.ParseDesign(text)
		if err != nil {
			return fmt.Errorf("design: %v", err)
		}
		resp, err = proto.Embed(ctx, d, sig, params, 1)
		if err != nil {
			return err
		}
	}
	fmt.Printf("embedded %d watermarks, %d constraints\n", resp.Watermarks, resp.TemporalEdges)
	if out != "" {
		if err := os.WriteFile(out, []byte(resp.MarkedDesign), 0o644); err != nil {
			return err
		}
	}
	if solPath != "" {
		if err := os.WriteFile(solPath, []byte(resp.MarkedSolution), 0o644); err != nil {
			return err
		}
	}
	if recPath != "" {
		rf := recordFile{Signature: []byte(sig), Family: fam, Records: resp.Records}
		data, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(recPath, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printDetectOutcomes renders one suspect's outcome row exactly as the
// scheduling detect paths do, returning the found count.
func printDetectOutcomes(outs []lwmapi.DetectOutcome) (int, error) {
	found := 0
	for i, out := range outs {
		if out.Error != "" {
			return 0, fmt.Errorf("%s", out.Error)
		}
		if out.Found {
			found++
			fmt.Printf("watermark %d: FOUND at root %s (%d constraints, Pc %s)\n",
				i, out.Root, out.Total, out.Pc)
		} else {
			fmt.Printf("watermark %d: not found (best %d/%d)\n",
				i, out.Satisfied, out.Total)
		}
	}
	return found, nil
}

// familyDetect runs one non-scheduling detect: the suspect design plus
// its solution (the -schedule file: a template cover for tmwm, a
// coloring for gcolor) scanned for the record file's watermarks. The
// record file must be labeled with the same family.
func familyDetect(ctx context.Context, fam, remote, in, ref, solPath, recPath string, workers int) error {
	data, err := os.ReadFile(recPath)
	if err != nil {
		return err
	}
	var rf recordFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return err
	}
	if got := lwmapi.CanonicalFamily(rf.Family); got != fam {
		return fmt.Errorf("record file is for family %q, not %q", got, fam)
	}
	solText, err := os.ReadFile(solPath)
	if err != nil {
		return err
	}
	var outs []lwmapi.DetectOutcome
	if remote != "" {
		c, err := newRemoteClient(remote)
		if err != nil {
			return err
		}
		design, err := readDesignText(in, ref)
		if err != nil {
			return err
		}
		res, err := c.Detect(ctx, lwmclient.DetectRequest{
			Family:   fam,
			Suspects: []lwmclient.Suspect{{Design: design, DesignRef: ref, Schedule: string(solText)}},
			Records:  rf.Records,
			Workers:  workers,
		})
		if err != nil {
			return err
		}
		if !res.Complete() {
			return res.Failed[0]
		}
		outs = res.Results[0]
	} else {
		proto, err := family.Lookup(fam)
		if err != nil {
			return err
		}
		text, err := readDesignText(in, ref)
		if err != nil {
			return err
		}
		d, err := proto.ParseDesign(text)
		if err != nil {
			return fmt.Errorf("design: %v", err)
		}
		sol, err := proto.ParseSolution(d, string(solText))
		if err != nil {
			return fmt.Errorf("schedule: %v", err)
		}
		resp, err := proto.Detect(ctx, []family.Suspect{{Design: d, Solution: sol}}, rf.Records, workers)
		if err != nil {
			return err
		}
		outs = resp.Results[0]
	}
	found, err := printDetectOutcomes(outs)
	if err != nil {
		return err
	}
	fmt.Printf("%d of %d watermarks detected\n", found, len(rf.Records))
	if found == 0 {
		flushTrace(ctx)
		os.Exit(3)
	}
	return nil
}

// familyVerify adjudicates one non-scheduling ownership claim from the
// claimed signature alone, printing the same claim report and honoring
// the same exit-3-on-unverified contract as the scheduling paths.
func familyVerify(ctx context.Context, fam, remote, in, ref, solPath, sig string, params lwmapi.MarkParams) error {
	solText, err := os.ReadFile(solPath)
	if err != nil {
		return err
	}
	var resp *lwmapi.VerifyResponse
	if remote != "" {
		c, err := newRemoteClient(remote)
		if err != nil {
			return err
		}
		design, err := readDesignText(in, ref)
		if err != nil {
			return err
		}
		resp, err = c.Verify(ctx, lwmclient.VerifyRequest{
			Family: fam, Design: design, DesignRef: ref,
			Schedule: string(solText), Signature: sig, MarkParams: params,
		})
		if err != nil {
			return err
		}
	} else {
		proto, err := family.Lookup(fam)
		if err != nil {
			return err
		}
		proto.Normalize(&params)
		text, err := readDesignText(in, ref)
		if err != nil {
			return err
		}
		d, err := proto.ParseDesign(text)
		if err != nil {
			return fmt.Errorf("design: %v", err)
		}
		sol, err := proto.ParseSolution(d, string(solText))
		if err != nil {
			return fmt.Errorf("schedule: %v", err)
		}
		resp, err = proto.Verify(ctx, family.Suspect{Design: d, Solution: sol}, sig, params, 1)
		if err != nil {
			return err
		}
	}
	fmt.Printf("claim by %q: %d/%d re-derived constraints satisfied, Pc %s\n",
		sig, resp.Satisfied, resp.Total, resp.Pc)
	if !resp.Verified {
		fmt.Println("verdict: claim NOT verified")
		flushTrace(ctx)
		os.Exit(3)
	}
	fmt.Println("verdict: claim verified")
	return nil
}

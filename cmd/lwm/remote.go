// Remote mode: every marking subcommand (embed, detect, verify) accepts
// -remote <addr> and then runs against a lwmd daemon through the
// resilient lwmclient instead of the in-process engine. Outputs are
// byte-identical to local runs — the daemon computes with the same
// engine and the wire carries everything the reports print — so scripts
// can switch between local and remote without changing their parsing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"localwm/lwmclient"
)

// apiKey carries the -api-key flag value into every remote client this
// process builds. One process runs one subcommand, so a single value
// suffices; the LWM_API_KEY environment variable is the default so
// scripts need not repeat the key on every invocation.
var apiKey string

// apiKeyFlag registers -api-key on a remote-capable subcommand.
func apiKeyFlag(fs *flag.FlagSet) {
	fs.StringVar(&apiKey, "api-key", os.Getenv("LWM_API_KEY"),
		"tenant API key for a daemon running -tenants-file (default $LWM_API_KEY)")
}

func newRemoteClient(addr string) (*lwmclient.Client, error) {
	return lwmclient.New(lwmclient.Config{BaseURL: addr, APIKey: apiKey})
}

// checkRefFlag rejects -ref without -remote: references only mean
// something to a daemon's registry; local runs always parse a file.
func checkRefFlag(ref, remote string) error {
	if ref != "" && remote == "" {
		return fmt.Errorf("-ref requires -remote (references resolve in a lwmd daemon's registry)")
	}
	return nil
}

// designSource returns the inline design text and registry reference for
// a marking request: with -ref the text stays empty (the daemon resolves
// the reference), otherwise the design file is read as before.
func designSource(in, ref string) (design string, err error) {
	if ref != "" {
		return "", nil
	}
	data, err := os.ReadFile(in)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// cmdDesign talks to a daemon's content-addressed design registry:
//
//	lwm design put -remote <addr> -in design.cdfg
//	lwm design get -remote <addr> -ref <ref> [-o out.cdfg]
//
// put prints the reference alone on stdout — REF=$(lwm design put ...)
// is the intended scripting idiom — with the human summary on stderr.
func cmdDesign(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lwm design {put|get} -remote <addr> [flags]")
	}
	switch args[0] {
	case "put":
		return cmdDesignPut(args[1:])
	case "get":
		return cmdDesignGet(args[1:])
	default:
		return fmt.Errorf("unknown design subcommand %q (want put or get)", args[0])
	}
}

func cmdDesignPut(args []string) error {
	fs := flag.NewFlagSet("design put", flag.ExitOnError)
	remote := fs.String("remote", "", "lwmd daemon address")
	apiKeyFlag(fs)
	in := fs.String("in", "", "design file")
	fam := familyFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" {
		return fmt.Errorf("design put: -remote required")
	}
	design, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	c, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	// The raw flag value goes on the wire: an unset -family stays off the
	// envelope entirely, keeping the request byte-identical to pre-family
	// clients.
	resp, err := c.PutDesignFamily(context.Background(), *fam, string(design))
	if err != nil {
		return err
	}
	verb := "registered"
	if !resp.Created {
		verb = "already registered"
	}
	fmt.Fprintf(os.Stderr, "%s: %d canonical bytes, %d nodes\n", verb, resp.Bytes, resp.Nodes)
	fmt.Println(resp.Ref)
	return nil
}

func cmdDesignGet(args []string) error {
	fs := flag.NewFlagSet("design get", flag.ExitOnError)
	remote := fs.String("remote", "", "lwmd daemon address")
	apiKeyFlag(fs)
	ref := fs.String("ref", "", "design registry reference")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || *ref == "" {
		return fmt.Errorf("design get: -remote and -ref required")
	}
	c, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	resp, err := c.GetDesign(context.Background(), *ref)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(resp.Design)
		return nil
	}
	return os.WriteFile(*out, []byte(resp.Design), 0o644)
}

// remoteEmbed mirrors cmdEmbed against a daemon: same flags, same
// printed line, same output files (marked design + detection record).
// A trace on ctx (lwm embed -trace -remote ...) collects the client's
// call/attempt spans with server-side stage timings as attributes.
func remoteEmbed(ctx context.Context, addr, in, ref, sig string, n, tau, k int, eps float64, budget int, out, recPath string) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	design, err := designSource(in, ref)
	if err != nil {
		return err
	}
	resp, err := c.Embed(ctx, lwmclient.EmbedRequest{
		Design:    design,
		DesignRef: ref,
		Signature: sig,
		MarkParams: lwmclient.MarkParams{
			N: n, Tau: tau, K: k, Epsilon: eps, Budget: budget,
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("embedded %d watermarks, %d temporal edges\n", resp.Watermarks, resp.TemporalEdges)
	if out != "" {
		if err := os.WriteFile(out, []byte(resp.MarkedDesign), 0o644); err != nil {
			return err
		}
	}
	if recPath != "" {
		rf := recordFile{Signature: []byte(sig), Records: resp.Records}
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

// remoteDetect mirrors cmdDetect against a daemon: identical per-record
// report lines and the same exit-3-on-zero-detections contract.
func remoteDetect(ctx context.Context, addr, in, ref, schedPath, recPath string, workers int) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	design, err := designSource(in, ref)
	if err != nil {
		return err
	}
	schedule, err := os.ReadFile(schedPath)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(recPath)
	if err != nil {
		return err
	}
	var rf recordFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return err
	}
	res, err := c.Detect(ctx, lwmclient.DetectRequest{
		Suspects: []lwmclient.Suspect{{Design: design, DesignRef: ref, Schedule: string(schedule)}},
		Records:  rf.Records,
		Workers:  workers,
	})
	if err != nil {
		return err
	}
	if !res.Complete() {
		return res.Failed[0]
	}
	found := 0
	for i, out := range res.Results[0] {
		if out.Error != "" {
			return fmt.Errorf("%s", out.Error)
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
	fmt.Printf("%d of %d watermarks detected\n", found, len(rf.Records))
	if found == 0 {
		flushTrace(ctx)
		os.Exit(3)
	}
	return nil
}

// remoteVerify mirrors cmdVerify against a daemon: same claim report and
// the same exit-3-on-unverified contract.
func remoteVerify(ctx context.Context, addr, in, ref, schedPath, sig string, n, tau, k int, eps float64, budget int) error {
	c, err := newRemoteClient(addr)
	if err != nil {
		return err
	}
	design, err := designSource(in, ref)
	if err != nil {
		return err
	}
	schedule, err := os.ReadFile(schedPath)
	if err != nil {
		return err
	}
	resp, err := c.Verify(ctx, lwmclient.VerifyRequest{
		Design:    design,
		DesignRef: ref,
		Schedule:  string(schedule),
		Signature: sig,
		MarkParams: lwmclient.MarkParams{
			N: n, Tau: tau, K: k, Epsilon: eps, Budget: budget,
		},
	})
	if err != nil {
		return err
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

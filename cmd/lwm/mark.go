// The marking subcommands — embed, detect and verify — run one path for
// every watermark family. In-process they resolve the family in the
// internal/family registry, normalize the mark parameters, run the
// request's admission check, parse the design (and the suspect solution)
// with the family's codecs and call the protocol: the same calls lwmd
// makes for a request. With -remote they make one lwmclient call
// carrying the raw flag values, and the daemon does the same. Both paths
// print through the same code, so local and remote runs are
// byte-identical on stdout and in every written file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"localwm/internal/family"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

// recordFile is the JSON envelope for detection records. Family labels
// the watermark family the records belong to; omitted for scheduling
// records, so sched record files are byte-identical to what earlier
// releases wrote (and the Record tail fields are omitempty for the same
// reason).
type recordFile struct {
	Signature []byte          `json:"signature"`
	Family    string          `json:"family,omitempty"`
	Records   []lwmapi.Record `json:"records"`
}

// markFlags registers the five mark parameters on embed, verify and
// robust. Each defaults to 0, which means the family's default (lwm
// families lists them), exactly as a 0 on the wire does.
func markFlags(fs *flag.FlagSet) *lwmapi.MarkParams {
	p := new(lwmapi.MarkParams)
	fs.IntVar(&p.N, "n", 0, "number of local watermarks (0: the family default)")
	fs.IntVar(&p.Tau, "tau", 0, "locality size τ (0: the family default)")
	fs.IntVar(&p.K, "k", 0, "constraints per watermark K (0: the family default)")
	fs.Float64Var(&p.Epsilon, "epsilon", 0, "laxity margin ε (0: the family default)")
	fs.IntVar(&p.Budget, "budget", 0, "control-step budget (0: critical path + 10%)")
	return p
}

// markCmd holds the flags embed, detect and verify share: where the
// design comes from, which family reads it, and where the work runs.
type markCmd struct {
	in, ref, remote, family string
	trace                   bool
}

func (m *markCmd) register(fs *flag.FlagSet, inHelp, verb string) {
	fs.StringVar(&m.in, "in", "", inHelp)
	fs.StringVar(&m.ref, "ref", "", "design registry reference in place of -in (remote only; see lwm design put)")
	fs.StringVar(&m.remote, "remote", "", "lwmd daemon address (empty: "+verb+" in-process)")
	apiKeyFlag(fs)
	fs.StringVar(&m.family, "family", "", familyHelp)
	fs.BoolVar(&m.trace, "trace", false, "print the span tree (engine stages, oracle recomputes, remote attempts) to stderr")
}

// parse parses the subcommand's flags, rejects -ref without -remote, and
// returns the run's context with its trace finisher (see traceCtx).
func (m *markCmd) parse(fs *flag.FlagSet, args []string) (context.Context, func(), error) {
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if err := checkRefFlag(m.ref, m.remote); err != nil {
		return nil, nil, err
	}
	ctx, finish := traceCtx(m.trace)
	return ctx, finish, nil
}

// dial builds the remote client and reads the design text to send.
func (m *markCmd) dial() (*lwmclient.Client, string, error) {
	c, err := newRemoteClient(m.remote)
	if err != nil {
		return nil, "", err
	}
	design, err := readDesignText(m.in, m.ref)
	if err != nil {
		return nil, "", err
	}
	return c, design, nil
}

// readDesign parses a design file with the family's codec, as lwmd
// parses a request's design text.
func readDesign(proto family.Protocol, in string) (family.Design, error) {
	text, err := os.ReadFile(in)
	if err != nil {
		return nil, err
	}
	return family.ParseDesign(proto, "design", string(text))
}

// readSuspect is readDesign plus the suspect solution (the -schedule
// file: a schedule, a template cover or a coloring) parsed against the
// design.
func readSuspect(proto family.Protocol, in string, solText []byte) (family.Suspect, error) {
	d, err := readDesign(proto, in)
	if err != nil {
		return family.Suspect{}, err
	}
	sol, err := proto.ParseSolution(d, string(solText))
	if err != nil {
		return family.Suspect{}, fmt.Errorf("schedule: %v", err)
	}
	return family.Suspect{Design: d, Solution: sol}, nil
}

// cmdEmbed embeds watermarks derived from a signature and writes the
// marked design to -out, the marked solution (tmwm, gcolor) to -solution
// and the detection records to -record.
func cmdEmbed(args []string) error {
	fs := flag.NewFlagSet("embed", flag.ExitOnError)
	var m markCmd
	m.register(fs, "design file", "embed")
	sig := fs.String("sig", "", "author signature")
	params := markFlags(fs)
	out := fs.String("out", "", "marked design output file")
	solPath := fs.String("solution", "", "marked solution output file (tmwm: template cover; gcolor: coloring)")
	recPath := fs.String("record", "", "detection record output file (JSON)")
	ctx, finishTrace, err := m.parse(fs, args)
	if err != nil {
		return err
	}
	defer finishTrace()
	fam := lwmapi.CanonicalFamily(m.family)
	if fam == lwmapi.FamilySched && *solPath != "" {
		return fmt.Errorf("-solution only applies to -family tmwm or gcolor (scheduling watermarks live in the marked design)")
	}

	var resp *lwmapi.EmbedResponse
	if m.remote != "" {
		c, design, err := m.dial()
		if err != nil {
			return err
		}
		resp, err = c.Embed(ctx, lwmclient.EmbedRequest{
			Family: m.family, Design: design, DesignRef: m.ref, Signature: *sig, MarkParams: *params,
		})
		if err != nil {
			return err
		}
	} else {
		proto, err := family.Lookup(m.family)
		if err != nil {
			return err
		}
		proto.Normalize(params)
		if err := family.CheckEmbed(*sig, params.N); err != nil {
			return err
		}
		d, err := readDesign(proto, m.in)
		if err != nil {
			return err
		}
		if resp, err = proto.Embed(ctx, d, *sig, *params, 1); err != nil {
			return err
		}
	}

	rf := recordFile{Signature: []byte(*sig), Family: fam, Records: resp.Records}
	constraints := "constraints"
	if fam == lwmapi.FamilySched {
		rf.Family, constraints = "", "temporal edges"
	}
	fmt.Printf("embedded %d watermarks, %d %s\n", resp.Watermarks, resp.TemporalEdges, constraints)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(resp.MarkedDesign), 0o644); err != nil {
			return err
		}
	}
	if *solPath != "" {
		if err := os.WriteFile(*solPath, []byte(resp.MarkedSolution), 0o644); err != nil {
			return err
		}
	}
	if *recPath != "" {
		data, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*recPath, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cmdDetect scans a suspect design and its solution for the watermarks
// of a record file, printing one line per record. It exits 3 when none
// is found.
func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	var m markCmd
	m.register(fs, "suspect design file", "detect")
	solPath := fs.String("schedule", "", "suspect solution file (sched: schedule; tmwm: template cover; gcolor: coloring)")
	recPath := fs.String("record", "", "detection record file (JSON)")
	workers := fs.Int("workers", 1, "parallel detection workers (output is identical for any value)")
	ctx, finishTrace, err := m.parse(fs, args)
	if err != nil {
		return err
	}
	defer finishTrace()

	// The record file's family label is checked before the suspect
	// parses: records of another family mean the suspect artifacts are
	// that family's formats, and naming it beats a codec parse error.
	data, err := os.ReadFile(*recPath)
	if err != nil {
		return err
	}
	var rf recordFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return err
	}
	if got, want := lwmapi.CanonicalFamily(rf.Family), lwmapi.CanonicalFamily(m.family); got != want {
		return fmt.Errorf("record file is for family %q, not %q; pass -family %s", got, want, got)
	}
	solText, err := os.ReadFile(*solPath)
	if err != nil {
		return err
	}

	var outs []lwmapi.DetectOutcome
	if m.remote != "" {
		c, design, err := m.dial()
		if err != nil {
			return err
		}
		res, err := c.Detect(ctx, lwmclient.DetectRequest{
			Family:   m.family,
			Suspects: []lwmclient.Suspect{{Design: design, DesignRef: m.ref, Schedule: string(solText)}},
			Records:  rf.Records,
			Workers:  *workers,
		})
		if err != nil {
			return err
		}
		if !res.Complete() {
			return res.Failed[0]
		}
		outs = res.Results[0]
	} else {
		proto, err := family.Lookup(m.family)
		if err != nil {
			return err
		}
		if err := family.CheckDetect(1, len(rf.Records)); err != nil {
			return err
		}
		sp, err := readSuspect(proto, m.in, solText)
		if err != nil {
			return err
		}
		resp, err := proto.Detect(ctx, []family.Suspect{sp}, rf.Records, *workers)
		if err != nil {
			return err
		}
		outs = resp.Results[0]
	}

	found := 0
	for i, out := range outs {
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

// cmdVerify adjudicates an ownership claim without trusting any record:
// the marking is re-derived from the claimed signature and checked
// against the suspect solution. The mark parameters are public and must
// match the claimant's. It exits 3 when the claim is not verified.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	var m markCmd
	m.register(fs, "suspect design file", "verify")
	solPath := fs.String("schedule", "", "suspect solution file (sched: schedule; tmwm: template cover; gcolor: coloring)")
	sig := fs.String("sig", "", "claimed author signature")
	params := markFlags(fs)
	ctx, finishTrace, err := m.parse(fs, args)
	if err != nil {
		return err
	}
	defer finishTrace()
	solText, err := os.ReadFile(*solPath)
	if err != nil {
		return err
	}

	var resp *lwmapi.VerifyResponse
	if m.remote != "" {
		c, design, err := m.dial()
		if err != nil {
			return err
		}
		resp, err = c.Verify(ctx, lwmclient.VerifyRequest{
			Family: m.family, Design: design, DesignRef: m.ref,
			Schedule: string(solText), Signature: *sig, MarkParams: *params,
		})
		if err != nil {
			return err
		}
	} else {
		proto, err := family.Lookup(m.family)
		if err != nil {
			return err
		}
		proto.Normalize(params)
		if err := family.CheckVerify(*sig); err != nil {
			return err
		}
		sp, err := readSuspect(proto, m.in, solText)
		if err != nil {
			return err
		}
		if resp, err = proto.Verify(ctx, sp, *sig, *params, 1); err != nil {
			return err
		}
	}

	fmt.Printf("claim by %q: %d/%d re-derived constraints satisfied, Pc %s\n",
		*sig, resp.Satisfied, resp.Total, resp.Pc)
	if !resp.Verified {
		fmt.Println("verdict: claim NOT verified")
		flushTrace(ctx)
		os.Exit(3)
	}
	fmt.Println("verdict: claim verified")
	return nil
}

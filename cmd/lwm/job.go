// Async job mode: submit embed/detect/verify work to a daemon's durable
// job queue instead of waiting on the synchronous endpoints.
//
//	lwm job submit -remote <addr> -payload job.json           # raw JobRequest
//	lwm job submit -remote <addr> -kind embed -in design.cdfg \
//	    -sig alice [-webhook URL] [-idempotency-key K]        # convenience
//	lwm job status -remote <addr> -id <job id>
//	lwm job wait   -remote <addr> -id <job id> [-out result.json]
//
// submit prints the job ID alone on stdout (JOB=$(lwm job submit ...) is
// the scripting idiom), with the human summary on stderr. wait blocks
// until the job is terminal and writes the result bytes verbatim — byte-
// identical to the synchronous endpoint's response body — to -out (or
// stdout), exiting 1 with the job's error if it failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"localwm/lwmclient"
)

func cmdJob(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lwm job {submit|status|wait} -remote <addr> [flags]")
	}
	switch args[0] {
	case "submit":
		return cmdJobSubmit(args[1:])
	case "status":
		return cmdJobStatus(args[1:])
	case "wait":
		return cmdJobWait(args[1:])
	default:
		return fmt.Errorf("unknown job subcommand %q (want submit, status, or wait)", args[0])
	}
}

func cmdJobSubmit(args []string) error {
	fs := flag.NewFlagSet("job submit", flag.ExitOnError)
	remote := fs.String("remote", "", "lwmd daemon address")
	apiKeyFlag(fs)
	payload := fs.String("payload", "", "file holding a raw JobRequest JSON document")
	kind := fs.String("kind", "", "job kind for the convenience form: embed or verify")
	in := fs.String("in", "", "design file (convenience form)")
	ref := fs.String("ref", "", "design registry reference instead of -in (convenience form)")
	sig := fs.String("sig", "", "owner signature (convenience form)")
	schedPath := fs.String("sched", "", "schedule file (verify only)")
	n := fs.Int("n", 0, "watermarks to embed (0: daemon default)")
	webhook := fs.String("webhook", "", "webhook URL POSTed the terminal status")
	idemKey := fs.String("idempotency-key", "", "submission dedup key (safe resubmits)")
	maxAttempts := fs.Int("max-attempts", 0, "retry budget (0: daemon default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" {
		return fmt.Errorf("job submit: -remote required")
	}

	var req lwmclient.JobRequest
	switch {
	case *payload != "":
		data, err := os.ReadFile(*payload)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &req); err != nil {
			return fmt.Errorf("job submit: parsing %s: %w", *payload, err)
		}
	case *kind != "":
		design, err := readDesignText(*in, *ref)
		if err != nil {
			return err
		}
		switch *kind {
		case "embed":
			req.Kind = "embed"
			req.Embed = &lwmclient.EmbedRequest{
				Design: design, DesignRef: *ref, Signature: *sig,
				MarkParams: lwmclient.MarkParams{N: *n},
			}
		case "verify":
			if *schedPath == "" {
				return fmt.Errorf("job submit: -kind verify requires -sched")
			}
			schedule, err := os.ReadFile(*schedPath)
			if err != nil {
				return err
			}
			req.Kind = "verify"
			req.Verify = &lwmclient.VerifyRequest{
				Design: design, DesignRef: *ref, Schedule: string(schedule),
				Signature: *sig, MarkParams: lwmclient.MarkParams{N: *n},
			}
		default:
			return fmt.Errorf("job submit: convenience form supports -kind embed or verify; use -payload for detect batches")
		}
	default:
		return fmt.Errorf("job submit: -payload or -kind required")
	}
	req.WebhookURL = *webhook
	req.IdempotencyKey = *idemKey
	req.MaxAttempts = *maxAttempts

	c, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	st, err := c.SubmitJob(context.Background(), req)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s: %s (kind %s, attempt %d/%d)\n",
		st.ID, st.State, st.Kind, st.Attempt, st.MaxAttempts)
	fmt.Println(st.ID)
	return nil
}

func cmdJobStatus(args []string) error {
	fs := flag.NewFlagSet("job status", flag.ExitOnError)
	remote := fs.String("remote", "", "lwmd daemon address")
	apiKeyFlag(fs)
	id := fs.String("id", "", "job ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || *id == "" {
		return fmt.Errorf("job status: -remote and -id required")
	}
	c, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	st, err := c.JobStatus(context.Background(), *id)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func cmdJobWait(args []string) error {
	fs := flag.NewFlagSet("job wait", flag.ExitOnError)
	remote := fs.String("remote", "", "lwmd daemon address")
	apiKeyFlag(fs)
	id := fs.String("id", "", "job ID")
	out := fs.String("out", "", "result file (default stdout)")
	timeout := fs.Duration("timeout", 10*time.Minute, "max time to wait for the job")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote == "" || *id == "" {
		return fmt.Errorf("job wait: -remote and -id required")
	}
	c, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	raw, err := c.WaitJobResult(ctx, *id)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s: done, %d result bytes\n", *id, len(raw))
	if *out == "" {
		os.Stdout.Write(raw)
		return nil
	}
	return os.WriteFile(*out, raw, 0o644)
}

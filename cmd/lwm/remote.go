// Remote mode: the marking subcommands (embed, detect, verify), robust
// and job accept -remote <addr> and then run against a lwmd daemon
// through the resilient lwmclient instead of in-process. Outputs are
// byte-identical to local runs — the daemon runs the same family
// protocols and the wire carries everything the reports print — so
// scripts can switch between local and remote without changing their
// parsing. This file holds the client plumbing they share and the
// remote-only design registry commands.
package main

import (
	"context"
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

// readDesignText loads the inline design text unless a registry
// reference stands in for it (remote only, checked by checkRefFlag): the
// daemon then resolves the reference and the text stays empty.
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

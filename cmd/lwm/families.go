// Watermark families from the CLI: gen -family gcolor writes a
// graph-coloring instance, and lwm families lists the registered
// families with their default mark parameters and capability flags —
// the defaults a 0-valued mark flag takes in embed, verify and robust.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/lwmapi"
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

// familyHelp describes the -family flag of every subcommand that has one.
const familyHelp = "watermark family: sched, tmwm, or gcolor (empty: sched; see lwm families)"

// familyFlag registers -family on gen and design put.
func familyFlag(fs *flag.FlagSet) *string {
	return fs.String("family", "", familyHelp)
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

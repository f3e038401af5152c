package tmatch

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// writeCoverReference is the former fmt-based WriteCover, kept as the
// reference the writer is compared against.
func writeCoverReference(w io.Writer, g *cdfg.Graph, lib *Library, c *Cover) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cover v1\n")
	for _, m := range c.Matchings {
		if m.Template < 0 || m.Template >= len(lib.Templates) {
			return fmt.Errorf("tmatch: matching references template %d outside the library", m.Template)
		}
		fmt.Fprintf(bw, "m %s", lib.Templates[m.Template].Name)
		for _, v := range m.Nodes {
			fmt.Fprintf(bw, " %s", g.Node(v).Name)
		}
		fmt.Fprintf(bw, "\n")
	}
	return bw.Flush()
}

func TestWriteCoverMatchesReference(t *testing.T) {
	lib := StandardLibrary()
	for _, row := range designs.Table2() {
		g := row.Build()
		cover, err := GreedyCover(g, lib, Constraints{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var got, want strings.Builder
		if err := WriteCover(&got, g, lib, cover); err != nil {
			t.Fatal(err)
		}
		if err := writeCoverReference(&want, g, lib, cover); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: WriteCover differs from the reference", row.Name)
		}
	}
}

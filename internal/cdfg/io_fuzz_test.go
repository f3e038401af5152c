package cdfg

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParse drives the text-format parser with arbitrary input. Parse is
// the trust boundary for every design file the lwm tool loads, so beyond
// "never panic" the fuzzer checks the format's round-trip contract: any
// input Parse accepts must survive Write∘Parse with a byte-identical
// second dump (Write emits canonical order, so the fixed point is reached
// after one rewrite). Parse and Write must also agree byte for byte, in
// output and in error text, with the fmt-based reference they replaced.
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "designs", "testdata", "*.cdfg"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no .cdfg seed files found")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	// Hand-written seeds for branches the benchmark designs never take:
	// comments, blank lines, default edge kind, every explicit kind,
	// and near-miss malformed lines.
	f.Add("# comment\n\nnode a in\nnode b add\nedge a b\n")
	f.Add("node a in\nnode b out\nedge a b data\nedge a b ctrl\nedge a b temp\n")
	f.Add("node a\n")
	f.Add("edge a b\n")
	f.Add("node a in\nnode a in\n")
	f.Add("bogus directive\n")
	f.Add("node a in\nnode b add extra\n")
	f.Add("node a in\nnode b frob\n")
	f.Add("node a in\nnode b add\nedge a b sideways\n")
	f.Add("node a in\nnode b add\nedge a b data more\n")
	f.Add("node\u00a0a\u2003in\n\tnode b\tadd\nedge a\u0085b\n")

	f.Fuzz(func(t *testing.T, input string) {
		g, err := Parse(strings.NewReader(input))
		ref, refErr := parseReference(strings.NewReader(input))
		if !sameErr(err, refErr) {
			t.Fatalf("Parse error %v, reference %v", err, refErr)
		}
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		var first, refFirst bytes.Buffer
		if err := Write(&first, g); err != nil {
			t.Fatalf("Write of parsed graph failed: %v", err)
		}
		if err := writeReference(&refFirst, ref); err != nil || !bytes.Equal(first.Bytes(), refFirst.Bytes()) {
			t.Fatalf("Write differs from the reference (%v)\ngot:\n%s\nreference:\n%s", err, first.String(), refFirst.String())
		}
		g2, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reparse of Write output failed: %v\ninput:\n%s\ndump:\n%s", err, input, first.String())
		}
		var second bytes.Buffer
		if err := Write(&second, g2); err != nil {
			t.Fatalf("second Write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write∘Parse not a fixed point\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// capture runs f with *stream (os.Stdout or os.Stderr) redirected into
// a pipe and returns what f printed there.
func capture(t *testing.T, stream **os.File, f func()) string {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		buf.ReadFrom(r)
		done <- buf.String()
	}()
	f()
	w.Close()
	*stream = old
	out := <-done
	r.Close()
	return out
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed, failing the test if f does. The subcommands report to
// stdout, so comparing these strings across -workers values checks the
// full CLI surface, not just the artifacts.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	var ferr error
	out := capture(t, &os.Stdout, func() { ferr = f() })
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput: %s", ferr, out)
	}
	return out
}

// workersValues is the satellite's required sweep: the sequential
// baseline, zero, a negative count, and more workers than the host has
// CPUs. Every value must be accepted and produce identical results.
func workersValues() []string {
	return []string{"1", "0", "-4", fmt.Sprint(runtime.NumCPU() + 13)}
}

// TestDetectWorkersFlagByteIdentical drives detect over the same
// artifacts at every workers value and requires identical reports.
func TestDetectWorkersFlagByteIdentical(t *testing.T) {
	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	marked := filepath.Join(dir, "m.cdfg")
	rec := filepath.Join(dir, "r.json")
	schedPath := filepath.Join(dir, "s.txt")
	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEmbed([]string{"-in", design, "-sig", "flag-test", "-n", "2",
		"-tau", "16", "-k", "3", "-epsilon", "0.4", "-out", marked, "-record", rec}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSchedule([]string{"-in", marked, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}

	var refDetect string
	for _, w := range workersValues() {
		det := captureStdout(t, func() error {
			return cmdDetect([]string{"-in", design, "-schedule", schedPath,
				"-record", rec, "-workers", w})
		})
		if refDetect == "" {
			refDetect = det
			continue
		}
		if det != refDetect {
			t.Fatalf("-workers %s: detect report diverged: %q vs %q", w, det, refDetect)
		}
	}
}

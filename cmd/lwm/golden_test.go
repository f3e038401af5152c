package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenCommands maps the subcommands the golden transcript runs to
// their entry points.
var goldenCommands = map[string]func([]string) error{
	"gen":      cmdGen,
	"embed":    cmdEmbed,
	"schedule": cmdSchedule,
	"detect":   cmdDetect,
	"verify":   cmdVerify,
	"robust":   cmdRobust,
}

// spanNames extracts the sorted span names from a -trace tree printed
// on stderr: every line after the "trace <id> (N spans)" header.
func spanNames(stderr string) string {
	lines := strings.Split(stderr, "\n")
	var names []string
	for i, line := range lines {
		if !strings.HasPrefix(line, "trace ") {
			continue
		}
		for _, span := range lines[i+1:] {
			if f := strings.Fields(span); len(f) > 0 {
				names = append(names, f[0])
			}
		}
		break
	}
	sort.Strings(names)
	if len(names) == 0 {
		return ""
	}
	return strings.Join(names, "\n") + "\n"
}

// TestGoldenTranscript replays testdata/golden/commands.txt in-process
// and requires each step's stdout, the span names of each -trace step,
// and every file the steps write to equal the captured transcript
// byte for byte.
func TestGoldenTranscript(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(filepath.Join(golden, "commands.txt"))
	if err != nil {
		t.Fatal(err)
	}
	readGolden := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	for _, line := range strings.Split(string(script), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		name, args := fields[0], fields[1:]
		if name == "copy" {
			if err := os.WriteFile(args[0], readGolden(args[0]), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		cmd, ok := goldenCommands[args[0]]
		if !ok {
			t.Fatalf("%s: unknown subcommand %q", name, args[0])
		}
		var stderr string
		stdout := captureStdout(t, func() error {
			var err error
			stderr = capture(t, &os.Stderr, func() { err = cmd(args[1:]) })
			return err
		})
		if want := string(readGolden(name + ".stdout")); stdout != want {
			t.Errorf("%s: stdout diverged:\ngot:\n%s\nwant:\n%s", name, stdout, want)
		}
		for _, a := range args {
			if a != "-trace" {
				continue
			}
			if got, want := spanNames(stderr), string(readGolden(name+".spans")); got != want {
				t.Errorf("%s: span names diverged:\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		}
	}

	written, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range written {
		seen[e.Name()] = true
		got, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(golden, e.Name()))
		if err != nil {
			t.Errorf("%s: written but not in the transcript", e.Name())
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: differs from the transcript", e.Name())
		}
	}
	kept, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range kept {
		n := e.Name()
		if n == "commands.txt" || n == "capture.sh" || strings.HasSuffix(n, ".stdout") || strings.HasSuffix(n, ".spans") {
			continue
		}
		if !seen[n] {
			t.Errorf("%s: in the transcript but not written", n)
		}
	}
}

package main

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"localwm/internal/server"
)

// lwmMainEnv, set to 1 in a child of the test binary, makes that child
// run lwm's main on its own arguments, so a test can observe exit codes
// and the os.Exit paths of the real command.
const lwmMainEnv = "LWM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(lwmMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runLwm runs `lwm args...` in a child process and returns its stdout,
// stderr and exit code.
func runLwm(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), lwmMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("lwm %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestAdmissionLocalMatchesRemote: a request lwmd refuses before any
// protocol runs — blank design text, a design without operations, no
// records, no signature, a non-positive n — fails in-process too. Each
// input runs as a real lwm process locally and against an in-process
// daemon, and both runs must exit 1 with nothing on stdout: no verdict
// line, and no panic.
func TestAdmissionLocalMatchesRemote(t *testing.T) {
	srv := server.New(server.Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	file := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dac := filepath.Join(dir, "dac.cdfg")
	if err := cmdGen([]string{"-design", "dac", "-o", dac}); err != nil {
		t.Fatal(err)
	}
	gc := filepath.Join(dir, "gc.txt")
	if err := cmdGen([]string{"-family", "gcolor", "-design", "admit", "-nodes", "32", "-o", gc}); err != nil {
		t.Fatal(err)
	}
	marked, rec, sol := filepath.Join(dir, "m.cdfg"), filepath.Join(dir, "r.json"), filepath.Join(dir, "s.txt")
	captureStdout(t, func() error { return cmdEmbed([]string{"-in", dac, "-sig", "admit", "-out", marked, "-record", rec}) })
	if err := cmdSchedule([]string{"-in", marked, "-out", sol}); err != nil {
		t.Fatal(err)
	}
	blank := file("blank.txt", " \n")
	comment := file("comment.cdfg", "# only a comment\n")
	noRecords := file("none.json", `{"signature": "YWRtaXQ=", "records": []}`)
	gcNoRecords := file("gcnone.json", `{"signature": "YWRtaXQ=", "family": "gcolor", "records": []}`)

	for name, args := range map[string][]string{
		"embed blank design":         {"embed", "-in", blank, "-sig", "admit"},
		"embed blank gcolor design":  {"embed", "-family", "gcolor", "-in", blank, "-sig", "admit"},
		"embed blank tmwm design":    {"embed", "-family", "tmwm", "-in", blank, "-sig", "admit"},
		"embed comment-only design":  {"embed", "-in", comment, "-sig", "admit"},
		"embed without signature":    {"embed", "-in", dac},
		"embed negative n":           {"embed", "-in", dac, "-sig", "admit", "-n", "-1"},
		"detect no records":          {"detect", "-in", dac, "-schedule", sol, "-record", noRecords},
		"detect no gcolor records":   {"detect", "-family", "gcolor", "-in", gc, "-schedule", blank, "-record", gcNoRecords},
		"detect blank design":        {"detect", "-in", blank, "-schedule", sol, "-record", rec},
		"verify blank design":        {"verify", "-in", blank, "-schedule", sol, "-sig", "admit"},
		"verify comment-only design": {"verify", "-in", comment, "-schedule", blank, "-sig", "admit"},
		"verify without signature":   {"verify", "-in", dac, "-schedule", sol},
	} {
		for _, mode := range []string{"local", "remote"} {
			run := args
			if mode == "remote" {
				run = append(append([]string{}, args...), "-remote", ts.URL)
			}
			stdout, stderr, code := runLwm(t, run...)
			if code != 1 || stdout != "" || strings.Contains(stderr, "panic") {
				t.Errorf("%s (%s): exit %d, stdout %q, stderr %q; want exit 1, no output", name, mode, code, stdout, stderr)
			}
		}
	}
}

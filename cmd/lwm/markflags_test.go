package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"localwm/internal/server"
)

// tryStdout is captureStdout for a command that may fail: it returns the
// error instead of failing the test.
func tryStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	var err error
	out := captureStdout(t, func() error { err = f(); return nil })
	return out, err
}

// markRun is what one embed/verify (or robust) run left behind.
type markRun struct {
	stdout string
	err    error
	files  map[string][]byte
}

// agree requires two runs to agree on success and, when both succeed, on
// stdout and on every written file.
func agree(t *testing.T, what string, local, remote markRun) {
	t.Helper()
	if (local.err == nil) != (remote.err == nil) {
		t.Fatalf("%s: local error %v, remote error %v", what, local.err, remote.err)
	}
	if local.err != nil {
		return
	}
	if local.stdout != remote.stdout {
		t.Errorf("%s: stdout diverged:\nlocal  %q\nremote %q", what, local.stdout, remote.stdout)
	}
	if len(local.files) != len(remote.files) {
		t.Errorf("%s: local wrote %d files, remote %d", what, len(local.files), len(remote.files))
	}
	for name, l := range local.files {
		if !bytes.Equal(l, remote.files[name]) {
			t.Errorf("%s: %s differs:\nlocal  %s\nremote %s", what, name, l, remote.files[name])
		}
	}
}

// TestMarkFlagsLocalMatchesRemote: a zero mark flag means the family's
// default in-process exactly as on the wire, and a value no run accepts
// fails both ways. For each case, every family's embed and verify run
// in-process and against a daemon; sched's robust joins for the zero
// cases.
func TestMarkFlagsLocalMatchesRemote(t *testing.T) {
	srv := server.New(server.Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	inputs := map[string]string{
		"sched":  filepath.Join(dir, "dac.cdfg"),
		"tmwm":   filepath.Join(dir, "dac.cdfg"),
		"gcolor": filepath.Join(dir, "gcolor.txt"),
	}
	if err := cmdGen([]string{"-design", "dac", "-o", inputs["sched"]}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen([]string{"-family", "gcolor", "-design", "agree", "-nodes", "32", "-o", inputs["gcolor"]}); err != nil {
		t.Fatal(err)
	}
	battery := writeBattery(t, dir)

	cases := []struct {
		name   string
		flags  []string
		robust bool
	}{
		{"unset", nil, false},
		{"n0", []string{"-n", "0"}, true},
		{"tau0", []string{"-tau", "0"}, true},
		{"k0", []string{"-k", "0"}, true},
		{"epsilon0", []string{"-epsilon", "0"}, true},
		{"n-1", []string{"-n", "-1"}, false},
		{"nosig", []string{"-sig", ""}, false},
	}
	for _, fam := range []string{"sched", "tmwm", "gcolor"} {
		in := inputs[fam]
		// Every verify reads the suspect of one default embed: the
		// design with a schedule of the marked design for sched, the
		// marked design with its marked solution otherwise.
		suspect := filepath.Join(dir, fam+".marked")
		sol := filepath.Join(dir, fam+".sol")
		embedArgs := []string{"-family", fam, "-in", in, "-sig", "agree", "-out", suspect, "-record", filepath.Join(dir, fam+".json")}
		if fam != "sched" {
			embedArgs = append(embedArgs, "-solution", sol)
		}
		if _, err := tryStdout(t, func() error { return cmdEmbed(embedArgs) }); err != nil {
			t.Fatalf("%s: default embed: %v", fam, err)
		}
		if fam == "sched" {
			if err := cmdSchedule([]string{"-in", suspect, "-out", sol}); err != nil {
				t.Fatal(err)
			}
			suspect = in
		}

		for _, c := range cases {
			t.Run(fam+"/"+c.name, func(t *testing.T) {
				embed := func(mode string, remote ...string) markRun {
					marked := filepath.Join(dir, mode+".marked")
					rec := filepath.Join(dir, mode+".json")
					msol := filepath.Join(dir, mode+".sol")
					for _, p := range []string{marked, rec, msol} {
						os.Remove(p)
					}
					args := append([]string{"-family", fam, "-in", in, "-sig", "agree"}, c.flags...)
					args = append(args, "-out", marked, "-record", rec)
					if fam != "sched" {
						args = append(args, "-solution", msol)
					}
					out, err := tryStdout(t, func() error { return cmdEmbed(append(args, remote...)) })
					return markRun{out, err, readFiles(mode, marked, rec, msol)}
				}
				agree(t, "embed", embed("local"), embed("remote", "-remote", ts.URL))

				verify := func(remote ...string) markRun {
					args := append([]string{"-family", fam, "-in", suspect, "-schedule", sol, "-sig", "agree"}, c.flags...)
					out, err := tryStdout(t, func() error { return cmdVerify(append(args, remote...)) })
					return markRun{stdout: out, err: err}
				}
				agree(t, "verify", verify(), verify("-remote", ts.URL))

				if fam != "sched" || !c.robust {
					return
				}
				robust := func(mode string, remote ...string) markRun {
					report := filepath.Join(dir, mode+".report")
					os.Remove(report)
					args := append([]string{"-in", in, "-sig", "agree", "-seed", "agree", "-battery", battery}, c.flags...)
					args = append(args, "-o", report)
					out, err := tryStdout(t, func() error { return cmdRobust(append(args, remote...)) })
					return markRun{out, err, readFiles(mode, report)}
				}
				agree(t, "robust", robust("local"), robust("remote", "-remote", ts.URL))
			})
		}
	}
}

// readFiles reads the files a run wrote, keyed by name without the run's
// mode prefix so the two runs' files pair up; a file the run did not
// write is absent.
func readFiles(mode string, paths ...string) map[string][]byte {
	files := map[string][]byte{}
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			files[filepath.Base(p)[len(mode):]] = data
		}
	}
	return files
}

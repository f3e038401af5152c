package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localwm/internal/designs"
	"localwm/internal/family"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// wavelet writes the Wavelet Filter design file a schedule parses against.
func wavelet(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "w.cdfg")
	if err := cmdGen([]string{"-design", "wavelet", "-o", path}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseScheduleRoundTrip(t *testing.T) {
	m := markCmd{in: wavelet(t, t.TempDir())}
	_, sp, err := m.loadSuspect(nil, []byte("budget 20\nstep lo_m0 1\nstep lo_a1 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := family.CDFG(sp.Design)
	s := sp.Solution.(*sched.Schedule)
	if s.Budget != 20 {
		t.Fatalf("budget = %d", s.Budget)
	}
	if s.Steps[g.MustNode("lo_m0")] != 1 || s.Steps[g.MustNode("lo_a1")] != 3 {
		t.Fatal("steps not parsed")
	}
}

func TestParseScheduleErrors(t *testing.T) {
	m := markCmd{in: wavelet(t, t.TempDir())}
	for name, content := range map[string]string{
		"unknown-node": "step nosuch 3\n",
		"garbage":      "frobnicate\n",
	} {
		if _, _, err := m.loadSuspect(nil, []byte(content)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestBuiltinDesignsAllBuild(t *testing.T) {
	for name, build := range builtinDesigns {
		g := build()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRecordFileJSONRoundTrip(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := schedwm.Embed(g, prng.Signature("json"), schedwm.Config{
		Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + 6})
	if err != nil {
		t.Fatal(err)
	}
	rf := recordFile{Signature: []byte("json"), Records: []lwmapi.Record{lwmapi.FromSchedRecord(wm.Record())}}
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	var back recordFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 1 {
		t.Fatal("records lost")
	}
	r0, r1 := rf.Records[0], back.Records[0]
	if string(r0.Signature) != string(r1.Signature) || r0.Index != r1.Index ||
		r0.Try != r1.Try || r0.TLen != r1.TLen || r0.RootFP != r1.RootFP ||
		len(r0.RankEdges) != len(r1.RankEdges) {
		t.Fatalf("record mangled: %+v vs %+v", r0, r1)
	}
}

// TestCommandsEndToEnd drives the subcommand functions through temp files:
// gen -> embed -> schedule -> detect, plus dot rendering.
func TestCommandsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	marked := filepath.Join(dir, "m.cdfg")
	rec := filepath.Join(dir, "r.json")
	schedPath := filepath.Join(dir, "s.txt")
	dot := filepath.Join(dir, "g.dot")

	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEmbed([]string{"-in", design, "-sig", "cli-test", "-n", "2",
		"-tau", "16", "-k", "3", "-epsilon", "0.4", "-out", marked, "-record", rec}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSchedule([]string{"-in", marked, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDetect([]string{"-in", design, "-schedule", schedPath, "-record", rec}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDot([]string{"-in", marked, "-o", dot}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Fatal("dot output malformed")
	}
	if err := cmdInfo([]string{"-in", marked}); err != nil {
		t.Fatal(err)
	}
}

// TestCmdVerifyEndToEnd embeds with known public parameters and verifies
// the claim through the CLI path.
func TestCmdVerifyEndToEnd(t *testing.T) {
	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	marked := filepath.Join(dir, "m.cdfg")
	rec := filepath.Join(dir, "r.json")
	schedPath := filepath.Join(dir, "s.txt")
	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}
	args := []string{"-in", design, "-sig", "owner", "-n", "2",
		"-tau", "16", "-k", "3", "-epsilon", "0.4"}
	if err := cmdEmbed(append(args, "-out", marked, "-record", rec)); err != nil {
		t.Fatal(err)
	}
	if err := cmdSchedule([]string{"-in", marked, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-in", design, "-schedule", schedPath,
		"-sig", "owner", "-n", "2", "-tau", "16", "-k", "3", "-epsilon", "0.4"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSynthReport(t *testing.T) {
	dir := t.TempDir()
	design := filepath.Join(dir, "w.cdfg")
	if err := cmdGen([]string{"-design", "wavelet", "-o", design}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSynth([]string{"-in", design, "-budget", "20"}); err != nil {
		t.Fatal(err)
	}
	// Default budget path (critical path) and the list-scheduler branch
	// for large designs.
	big := filepath.Join(dir, "e.cdfg")
	if err := cmdGen([]string{"-design", "echo", "-o", big}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSynth([]string{"-in", big}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGenUnknownDesign(t *testing.T) {
	if err := cmdGen([]string{"-design", "nosuch"}); err == nil {
		t.Fatal("unknown design accepted")
	}
}

package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localwm/internal/server"
)

// TestRemoteModeMatchesLocal drives embed → detect → verify through a
// real daemon with -remote and requires the printed reports and output
// files to be byte-identical to the in-process runs.
func TestRemoteModeMatchesLocal(t *testing.T) {
	srv := server.New(server.Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}
	embedArgs := func(marked, rec string, extra ...string) []string {
		return append([]string{"-in", design, "-sig", "remote-test", "-n", "2",
			"-tau", "16", "-k", "3", "-epsilon", "0.4",
			"-out", marked, "-record", rec}, extra...)
	}

	localMarked := filepath.Join(dir, "local.cdfg")
	localRec := filepath.Join(dir, "local.json")
	localOut := captureStdout(t, func() error {
		return cmdEmbed(embedArgs(localMarked, localRec))
	})

	remoteMarked := filepath.Join(dir, "remote.cdfg")
	remoteRec := filepath.Join(dir, "remote.json")
	remoteOut := captureStdout(t, func() error {
		return cmdEmbed(embedArgs(remoteMarked, remoteRec, "-remote", ts.URL))
	})
	if localOut != remoteOut {
		t.Fatalf("embed output diverged:\nlocal  %q\nremote %q", localOut, remoteOut)
	}
	for _, pair := range [][2]string{{localMarked, remoteMarked}, {localRec, remoteRec}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s and %s differ", pair[0], pair[1])
		}
	}

	schedPath := filepath.Join(dir, "s.txt")
	if err := cmdSchedule([]string{"-in", localMarked, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}

	detectArgs := []string{"-in", design, "-schedule", schedPath, "-record", localRec}
	localDetect := captureStdout(t, func() error { return cmdDetect(detectArgs) })
	remoteDetect := captureStdout(t, func() error {
		return cmdDetect(append(detectArgs, "-remote", ts.URL))
	})
	if localDetect != remoteDetect {
		t.Fatalf("detect output diverged:\nlocal  %q\nremote %q", localDetect, remoteDetect)
	}

	verifyArgs := []string{"-in", design, "-schedule", schedPath, "-sig", "remote-test",
		"-n", "2", "-tau", "16", "-k", "3", "-epsilon", "0.4"}
	localVerify := captureStdout(t, func() error { return cmdVerify(verifyArgs) })
	remoteVerify := captureStdout(t, func() error {
		return cmdVerify(append(verifyArgs, "-remote", ts.URL))
	})
	if localVerify != remoteVerify {
		t.Fatalf("verify output diverged:\nlocal  %q\nremote %q", localVerify, remoteVerify)
	}
}

// TestRemoteRefModeMatchesInline drives the registry surface end to end:
// lwm design put prints a scriptable reference, embed/detect/verify with
// -ref print byte-identical reports (and write byte-identical artifacts)
// to their inline -remote runs, and design get round-trips the canonical
// text.
func TestRemoteRefModeMatchesInline(t *testing.T) {
	srv := server.New(server.Config{EngineWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}

	ref := strings.TrimSpace(captureStdout(t, func() error {
		return cmdDesign([]string{"put", "-remote", ts.URL, "-in", design})
	}))
	if len(ref) != 64 {
		t.Fatalf("design put printed %q, want a 64-hex reference", ref)
	}
	// Idempotent: the same design answers the same reference.
	again := strings.TrimSpace(captureStdout(t, func() error {
		return cmdDesign([]string{"put", "-remote", ts.URL, "-in", design})
	}))
	if again != ref {
		t.Fatalf("re-put changed the reference: %s vs %s", again, ref)
	}

	// Embed: inline -remote vs -ref, identical report and artifacts.
	inMarked, inRec := filepath.Join(dir, "in.cdfg"), filepath.Join(dir, "in.json")
	refMarked, refRec := filepath.Join(dir, "ref.cdfg"), filepath.Join(dir, "ref.json")
	embedArgs := []string{"-sig", "ref-test", "-n", "2", "-tau", "16", "-k", "3",
		"-epsilon", "0.4", "-remote", ts.URL}
	inlineEmbed := captureStdout(t, func() error {
		return cmdEmbed(append([]string{"-in", design, "-out", inMarked, "-record", inRec}, embedArgs...))
	})
	refEmbed := captureStdout(t, func() error {
		return cmdEmbed(append([]string{"-ref", ref, "-out", refMarked, "-record", refRec}, embedArgs...))
	})
	if inlineEmbed != refEmbed {
		t.Fatalf("embed output diverged:\ninline %q\nref    %q", inlineEmbed, refEmbed)
	}
	for _, pair := range [][2]string{{inMarked, refMarked}, {inRec, refRec}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s and %s differ", pair[0], pair[1])
		}
	}

	schedPath := filepath.Join(dir, "s.txt")
	if err := cmdSchedule([]string{"-in", inMarked, "-out", schedPath}); err != nil {
		t.Fatal(err)
	}

	detectInline := captureStdout(t, func() error {
		return cmdDetect([]string{"-in", design, "-schedule", schedPath,
			"-record", inRec, "-remote", ts.URL})
	})
	detectRef := captureStdout(t, func() error {
		return cmdDetect([]string{"-ref", ref, "-schedule", schedPath,
			"-record", inRec, "-remote", ts.URL})
	})
	if detectInline != detectRef {
		t.Fatalf("detect output diverged:\ninline %q\nref    %q", detectInline, detectRef)
	}

	verifyArgs := []string{"-schedule", schedPath, "-sig", "ref-test",
		"-n", "2", "-tau", "16", "-k", "3", "-epsilon", "0.4", "-remote", ts.URL}
	verifyInline := captureStdout(t, func() error {
		return cmdVerify(append([]string{"-in", design}, verifyArgs...))
	})
	verifyRef := captureStdout(t, func() error {
		return cmdVerify(append([]string{"-ref", ref}, verifyArgs...))
	})
	if verifyInline != verifyRef {
		t.Fatalf("verify output diverged:\ninline %q\nref    %q", verifyInline, verifyRef)
	}

	// design get returns the canonical text: re-putting what it printed
	// must answer the same reference.
	got := captureStdout(t, func() error {
		return cmdDesign([]string{"get", "-remote", ts.URL, "-ref", ref})
	})
	roundTrip := filepath.Join(dir, "rt.cdfg")
	if err := os.WriteFile(roundTrip, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	rtRef := strings.TrimSpace(captureStdout(t, func() error {
		return cmdDesign([]string{"put", "-remote", ts.URL, "-in", roundTrip})
	}))
	if rtRef != ref {
		t.Fatalf("get→put round-trip changed the reference: %s vs %s", rtRef, ref)
	}

	// -ref is remote-only.
	if err := cmdDetect([]string{"-ref", ref, "-schedule", schedPath, "-record", inRec}); err == nil {
		t.Fatal("-ref without -remote accepted")
	}
}

// TestRemoteModeSurfacesServiceErrors: a definite service rejection (bad
// request) comes back as an error, not a retry loop.
func TestRemoteModeSurfacesServiceErrors(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	if err := cmdGen([]string{"-design", "dac", "-o", design}); err != nil {
		t.Fatal(err)
	}
	// Empty signature is a 400 from the daemon.
	err := remoteEmbed(context.Background(), ts.URL, design, "", "", 2, 16, 3, 0.4, 0, "", "")
	if err == nil {
		t.Fatal("empty signature accepted")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
)

// freePort reserves then releases a loopback port. The tiny window
// before run() rebinds it is acceptable for a test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDaemonServesAndDrainsOnSIGTERM boots the real daemon — flags,
// listeners, signal handling — serves one embed request, then delivers
// an actual SIGTERM to the process and requires a clean, error-free
// drain.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	addr := freePort(t)
	debugAddr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-debug-addr", debugAddr,
			"-drain-timeout", "10s"})
	}()

	base := "http://" + addr
	var resp *http.Response
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	var design bytes.Buffer
	if err := cdfg.Write(&design, designs.DAConverter()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"design": design.String(), "signature": "daemon-test",
		"n": 2, "tau": 16, "k": 3, "epsilon": 0.4,
	})
	er, err := http.Post(base+"/v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var embed struct {
		Watermarks int `json:"watermarks"`
	}
	if err := json.NewDecoder(er.Body).Decode(&embed); err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	if er.StatusCode != http.StatusOK || embed.Watermarks != 2 {
		t.Fatalf("embed: status %d, watermarks %d", er.StatusCode, embed.Watermarks)
	}

	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		dr, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
		if dr.StatusCode != http.StatusOK {
			t.Fatalf("debug port %s: status %d", path, dr.StatusCode)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestDaemonStoreDirSurvivesRestart: with -store-dir, a registered
// design's reference resolves again after a full daemon stop/start (WAL
// replay), the replayed entry actually computes (embed by ref), and the
// store counters restart cold — the WAL persists designs, not stats.
func TestDaemonStoreDirSurvivesRestart(t *testing.T) {
	storeDir := t.TempDir()

	var design bytes.Buffer
	if err := cdfg.Write(&design, designs.DAConverter()); err != nil {
		t.Fatal(err)
	}

	boot := func() (string, chan error) {
		addr := freePort(t)
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", addr, "-store-dir", storeDir, "-drain-timeout", "5s"})
		}()
		base := "http://" + addr
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never came up: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return base, done
	}
	stop := func(done chan error) {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain after SIGTERM")
		}
	}
	// storeStats reads the unlabeled lwmd_store_<name> series, keyed by
	// name ("puts", "entries", ...).
	storeStats := func(base string) map[string]float64 {
		out := map[string]float64{}
		for family, series := range getStats(t, base) {
			if name, ok := strings.CutPrefix(family, "lwmd_store_"); ok {
				out[strings.TrimSuffix(name, "_total")] = series[0].Value
			}
		}
		if len(out) == 0 {
			t.Fatal("/v1/stats has no lwmd_store_* families")
		}
		return out
	}

	base, done := boot()
	body, _ := json.Marshal(map[string]string{"design": design.String()})
	preq, err := http.NewRequest(http.MethodPut, base+"/v1/designs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	var put struct {
		Ref string `json:"ref"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&put); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || len(put.Ref) != 64 {
		t.Fatalf("put: status %d, ref %q", pr.StatusCode, put.Ref)
	}
	if st := storeStats(base); st["puts"] != 1 {
		t.Fatalf("first life store stats: %v", st)
	}
	stop(done)

	// Second life, same -store-dir: the ref must resolve from the WAL.
	base, done = boot()
	st := storeStats(base)
	if st["entries"] != 1 {
		t.Fatalf("WAL replay lost the design: %v", st)
	}
	if st["puts"] != 0 || st["hits"] != 0 || st["misses"] != 0 {
		t.Fatalf("store counters not cold after restart: %v", st)
	}
	gr, err := http.Get(base + "/v1/designs/" + put.Ref)
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusOK {
		t.Fatalf("ref did not resolve after restart: %d", gr.StatusCode)
	}
	ebody, _ := json.Marshal(map[string]any{
		"design_ref": put.Ref, "signature": "restart-test",
		"n": 2, "tau": 16, "k": 3, "epsilon": 0.4,
	})
	er, err := http.Post(base+"/v1/embed", "application/json", bytes.NewReader(ebody))
	if err != nil {
		t.Fatal(err)
	}
	var embed struct {
		Watermarks int `json:"watermarks"`
	}
	if err := json.NewDecoder(er.Body).Decode(&embed); err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	if er.StatusCode != http.StatusOK || embed.Watermarks != 2 {
		t.Fatalf("embed by replayed ref: status %d, watermarks %d", er.StatusCode, embed.Watermarks)
	}
	if st := storeStats(base); st["hits"] < 1 {
		t.Fatalf("replayed entry not serving hits: %v", st)
	}
	stop(done)
}

// statsSeries is one counter or gauge series on /v1/stats.
type statsSeries struct {
	Labels map[string]string `json:"labels"`
	Value  float64           `json:"value"`
}

// getStats fetches GET /v1/stats: family name to series.
func getStats(t *testing.T, base string) map[string][]statsSeries {
	t.Helper()
	sr, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st map[string][]statsSeries
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-addr", "not-an-address"}); err == nil {
		t.Fatal("bad -addr accepted")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-debug-addr", "bogus:addr:99"}); err == nil {
		t.Fatal("bad -debug-addr accepted")
	}
}

// TestDaemonChaosFlag boots the daemon with -chaos and requires the
// fault injector to be wired in: /v1/stats carries the
// lwmd_chaos_requests_total family (absent by default — the zero-flag
// path must stay byte-identical to a build without the chaos layer).
func TestDaemonChaosFlag(t *testing.T) {
	for _, chaosOn := range []bool{false, true} {
		addr := freePort(t)
		args := []string{"-addr", addr, "-drain-timeout", "5s"}
		if chaosOn {
			args = append(args, "-chaos", "-chaos-seed", "7")
		}
		done := make(chan error, 1)
		go func() { done <- run(args) }()

		base := "http://" + addr
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon never came up: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if _, ok := getStats(t, base)["lwmd_chaos_requests_total"]; ok != chaosOn {
			t.Fatalf("-chaos=%v but lwmd_chaos_requests_total present=%v", chaosOn, ok)
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain after SIGTERM")
		}
	}
}

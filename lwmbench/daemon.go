package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one lwmd child process serving on a loopback port.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	state *os.ProcessState
	done  chan struct{}
}

// logScanner copies the daemon's log to a file and reports the address
// from its "serving" line (the daemon listens on an ephemeral port).
type logScanner struct {
	mu   sync.Mutex
	out  io.Writer
	buf  []byte
	addr chan string
	sent bool
}

var servingRE = regexp.MustCompile(`msg=serving addr=(\S+)`)

func (l *logScanner) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.out.Write(p); err != nil {
		return 0, err
	}
	if l.sent {
		return len(p), nil
	}
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		if m := servingRE.FindSubmatch(l.buf[:i]); m != nil {
			l.addr <- string(m[1])
			l.sent = true
			l.buf = nil
			break
		}
		l.buf = l.buf[i+1:]
	}
	return len(p), nil
}

// startDaemon boots lwmd on dir's store and jobs directories and waits
// until /healthz answers. Only the address and the two directories are
// set; every other setting keeps lwmd's default.
func startDaemon(bin, dir string, logOut io.Writer) (*daemon, error) {
	ls := &logScanner{out: logOut, addr: make(chan string, 1)}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-store-dir", filepath.Join(dir, "store"),
		"-jobs-dir", filepath.Join(dir, "jobs"))
	cmd.Stdout = logOut
	cmd.Stderr = ls
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// Should the benchmark itself be killed, the daemon goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting lwmd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		d.state = cmd.ProcessState
		close(d.done)
	}()
	select {
	case d.addr = <-ls.addr:
	case <-d.done:
		return nil, fmt.Errorf("lwmd exited during start-up: %v", d.state)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("lwmd did not report its address within 60s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("lwmd at %s not healthy within 60s", d.addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// stop drains the daemon with SIGTERM, as an operator would, and waits
// for it to exit (SIGKILL after 60s).
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling lwmd: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("lwmd did not drain within 60s")
	}
	if !d.state.Success() {
		return fmt.Errorf("lwmd exited with %v", d.state)
	}
	return nil
}

// maxRSSMB is the daemon's peak resident set over its whole life, from
// the kernel's accounting of the reaped child.
func (d *daemon) maxRSSMB() float64 {
	if d.state == nil {
		return 0
	}
	ru, ok := d.state.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scrape reads the daemon's Prometheus exposition and sums every series
// of each metric name across its label sets.
func scrape(ctx context.Context, addr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // exemplar
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			j := strings.LastIndexByte(rest, '}')
			if j < 0 {
				continue
			}
			rest = rest[j+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

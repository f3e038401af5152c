package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"localwm/internal/obs"
	"localwm/lwmapi"
	"localwm/lwmclient"
)

// trip is one HTTP round trip as the recording transport saw it.
type trip struct {
	reqBytes, respBytes int64
	wall                time.Duration // send to last body byte
	queueWait, run      time.Duration
	timed               bool // the daemon sent X-Lwm-Server-Timing
}

// recorder wraps the shared transport of one load client. Each client
// sends one request at a time, so the recorder needs no locking.
type recorder struct {
	base  http.RoundTripper
	trips []trip
	last  []byte // body of the latest response
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	t := trip{reqBytes: req.ContentLength}
	start := time.Now()
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		r.trips = append(r.trips, t)
		return nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.wall = time.Since(start)
	if rerr != nil {
		r.trips = append(r.trips, t)
		return nil, rerr
	}
	t.respBytes = int64(len(body))
	var qw, rn int64
	if _, err := fmt.Sscanf(resp.Header.Get(obs.TimingHeader), "queue_wait_ns=%d;run_ns=%d", &qw, &rn); err == nil {
		t.queueWait, t.run, t.timed = time.Duration(qw), time.Duration(rn), true
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	r.last = body
	r.trips = append(r.trips, t)
	return resp, nil
}

// result is one completed (or failed) request of the closed loop.
type result struct {
	idx      int // position in the endless script
	op       *Op
	start    time.Time
	latency  time.Duration
	inWindow bool // completed before the measurement deadline
	err      error
	hash     [32]byte // response bytes (job: the stored result)
	semErr   string   // a failed semantic check (not found, not verified)
	trips    []trip
	attempts uint64
}

// client is one closed-loop caller: an lwmclient over a recording
// transport.
type client struct {
	c   *lwmclient.Client
	rec *recorder
}

func newClients(addr string, n int) ([]*client, error) {
	// At most n connections: one per caller, each waiting for its reply.
	base := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	out := make([]*client, n)
	for i := range out {
		rec := &recorder{base: base}
		c, err := lwmclient.New(lwmclient.Config{BaseURL: addr, HTTPClient: &http.Client{Transport: rec}})
		if err != nil {
			return nil, err
		}
		out[i] = &client{c: c, rec: rec}
	}
	return out, nil
}

// do sends one op and checks what can be checked without the reference:
// the true owner's detects are found, verifies verify, and a put answers
// the ref the benchmark computed for the design.
func (cl *client) do(ctx context.Context, op *Op) *result {
	cl.rec.trips, cl.rec.last = nil, nil
	before := cl.c.Counters().Attempts
	r := &result{op: op, start: time.Now()}
	var body []byte
	switch op.Kind {
	case kindEmbed:
		_, r.err = cl.c.Embed(ctx, *op.Embed)
		body = cl.rec.last
	case kindJob:
		var st *lwmclient.JobStatus
		st, r.err = cl.c.SubmitJob(ctx, lwmclient.JobRequest{Kind: lwmapi.JobKindEmbed, Embed: op.Embed})
		if r.err == nil {
			body, r.err = cl.c.WaitJobResult(ctx, st.ID)
		}
	case kindVerify:
		var resp *lwmclient.VerifyResponse
		resp, r.err = cl.c.Verify(ctx, *op.Verify)
		body = cl.rec.last
		if r.err == nil && !resp.Verified {
			r.semErr = "owner's claim not verified"
		}
	case kindDetect:
		var res *lwmclient.DetectResult
		req := lwmclient.DetectRequest{Suspects: op.Detect.Suspects, Records: op.Detect.Records,
			Family: op.Detect.Family, Workers: op.Detect.Workers}
		if req.Suspects[0].DesignRef != "" {
			res, r.err = cl.c.DetectByRef(ctx, req)
		} else {
			res, r.err = cl.c.Detect(ctx, req)
		}
		body = cl.rec.last
		if r.err == nil && !res.Complete() {
			r.err = res.Failed[0].Err
		}
		if r.err == nil {
			for _, cell := range op.Owned {
				if !res.Results[cell[0]][cell[1]].Found {
					r.semErr = fmt.Sprintf("owner's record %d not found in suspect %d", cell[1], cell[0])
				}
			}
		}
	case kindPut:
		var resp *lwmclient.PutDesignResponse
		resp, r.err = cl.c.PutDesignFamily(ctx, familyField(op.Put.Family), op.Put.Text)
		if r.err == nil {
			// Created depends on what was registered before; the rest of
			// the answer is a function of the design.
			resp.Created = false
			body, _ = json.Marshal(resp)
		}
	default:
		r.err = fmt.Errorf("unknown op kind %q", op.Kind)
	}
	r.latency = time.Since(r.start)
	r.trips = cl.rec.trips
	r.attempts = cl.c.Counters().Attempts - before
	if r.err == nil {
		r.hash = sha256.Sum256(body)
	}
	return r
}

// loadRun is the outcome of one closed-loop measurement window.
type loadRun struct {
	results  []*result
	window   time.Duration
	busy     time.Duration // window start to its last completion
	attempts uint64
	retries  uint64
}

// runLoad drives the script with len(clients) closed-loop callers for
// the given window. Requests in flight at the deadline finish (and are
// checked) but count in no rate or latency.
func runLoad(ctx context.Context, w *Workload, clients []*client, window time.Duration) *loadRun {
	var next atomic.Int64
	// Puts signal completion so a detect scanning a fresh suspect is
	// never sent before the suspect is registered.
	putDone := map[int]chan struct{}{}
	for i, op := range w.Script {
		if op.Kind == kindPut {
			putDone[i] = make(chan struct{})
		}
	}
	var before [2]uint64
	for _, cl := range clients {
		c := cl.c.Counters()
		before[0] += c.Attempts
		before[1] += c.Retries
	}
	start := time.Now()
	deadline := start.Add(window)
	perClient := make([][]*result, len(clients))
	var wg sync.WaitGroup
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl *client) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				op := &w.Script[i%len(w.Script)]
				for _, dep := range op.After {
					select {
					case <-putDone[dep]:
					case <-ctx.Done():
					}
				}
				r := cl.do(ctx, op)
				r.idx = i
				r.inWindow = !r.start.Add(r.latency).After(deadline)
				if ch, ok := putDone[i]; ok && i < len(w.Script) {
					close(ch)
				}
				perClient[ci] = append(perClient[ci], r)
			}
		}(ci, cl)
	}
	wg.Wait()
	// The rate's denominator ends at the last completion inside the
	// window, so a request still in flight at the deadline neither
	// counts nor dilutes the rate.
	lr := &loadRun{window: window, busy: window}
	var last time.Time
	for _, rs := range perClient {
		lr.results = append(lr.results, rs...)
		for _, r := range rs {
			if end := r.start.Add(r.latency); r.inWindow && r.err == nil && end.After(last) {
				last = end
			}
		}
	}
	if !last.IsZero() {
		lr.busy = last.Sub(start)
	}
	for _, cl := range clients {
		c := cl.c.Counters()
		lr.attempts += c.Attempts
		lr.retries += c.Retries
	}
	lr.attempts -= before[0]
	lr.retries -= before[1]
	return lr
}

// runOps sends ops one after another on one client (set-up and
// warm-up) and fails on the first error.
func runOps(ctx context.Context, cl *client, ops []Op) ([]*result, error) {
	var out []*result
	for i := range ops {
		r := cl.do(ctx, &ops[i])
		if r.err != nil {
			return out, fmt.Errorf("%s request: %w", ops[i].Kind, r.err)
		}
		if r.semErr != "" {
			return out, errors.New(ops[i].Kind + " request: " + r.semErr)
		}
		out = append(out, r)
	}
	return out, nil
}

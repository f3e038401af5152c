// Package chaos is a deterministic fault injector for the lwmd service:
// HTTP middleware that, with seeded pseudo-random decisions, adds
// latency, resets connections, substitutes 500s, or truncates response
// bodies. It exists to prove the resilience layer (lwmclient) converges
// under partial transport failure — the systems analogue of the paper's
// locally-detectable-watermark property, where a batch survives the loss
// of any one piece.
//
// Determinism: every request draws the same fixed number of values from
// one seeded source, so a given seed and request arrival order replays
// the same fault sequence, regardless of which faults are enabled. The
// injector is opt-in (lwmd -chaos) and must never run in production —
// every injected fault is counted and visible on the daemon snapshot.
package chaos

import (
	"context"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"localwm/internal/obs"
)

// Config sets the per-request fault probabilities. Probabilities are
// independent draws in [0,1); latency composes with the other faults
// (a request can be both delayed and reset), while reset/error/truncate
// are mutually exclusive with reset taking precedence, then error.
type Config struct {
	// Seed keys the fault sequence. Zero means seed 1 (never time-based:
	// a chaos run must be replayable).
	Seed int64
	// PLatency is the probability of added latency, uniform in
	// (0, MaxLatency].
	PLatency   float64
	MaxLatency time.Duration
	// PReset is the probability the connection is severed before any
	// response bytes (TCP reset where the transport allows it).
	PReset float64
	// PError is the probability of a substituted 500 (the handler never
	// runs).
	PError float64
	// PTruncate is the probability the real response is sent with a
	// Content-Length promising more than is delivered, so the client's
	// body read fails with io.ErrUnexpectedEOF instead of silently
	// yielding a short payload.
	PTruncate float64
	// Logger, when non-nil, logs every injected fault (msg="chaos",
	// attrs kind and trace_id from the request's X-Lwm-Trace-Id) so a
	// chaos run's faults correlate with the request log lines they
	// disturbed.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxLatency <= 0 {
		c.MaxLatency = 25 * time.Millisecond
	}
	return c
}

// Default is the daemon's -chaos mix: ~10% delayed and ~22% of requests
// hard-faulted (reset, 500, or truncation, ~8% each).
func Default(seed int64) Config {
	return Config{
		Seed:       seed,
		PLatency:   0.10,
		MaxLatency: 25 * time.Millisecond,
		PReset:     0.08,
		PError:     0.08,
		PTruncate:  0.08,
	}
}

// Counters is a snapshot of injected-fault totals.
type Counters struct {
	Requests    uint64 // requests seen by the middleware
	Latencies   uint64 // requests delayed
	Resets      uint64 // connections severed
	Errors      uint64 // substituted 500s
	Truncations uint64 // truncated response bodies
}

// Faulted is the number of requests that received a hard fault (the
// kind a client must retry; added latency alone is not one).
func (c Counters) Faulted() uint64 { return c.Resets + c.Errors + c.Truncations }

// Injector injects faults per Config. Create with New; one Injector
// serves any number of handlers, sharing the seeded sequence.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	requests    atomic.Uint64
	latencies   atomic.Uint64
	resets      atomic.Uint64
	errors      atomic.Uint64
	truncations atomic.Uint64
}

// New builds an Injector with cfg's fault mix.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counters returns the injected-fault totals so far.
func (in *Injector) Counters() Counters {
	return Counters{
		Requests:    in.requests.Load(),
		Latencies:   in.latencies.Load(),
		Resets:      in.resets.Load(),
		Errors:      in.errors.Load(),
		Truncations: in.truncations.Load(),
	}
}

// fault kinds (mutually exclusive; latency composes with all of them).
const (
	faultNone = iota
	faultReset
	faultError
	faultTruncate
)

// plan is one request's drawn fate.
type plan struct {
	delay time.Duration
	fault int
}

// decide draws a plan. Exactly five values are consumed from the seeded
// source per request — always, whatever the probabilities — so the
// sequence for request k depends only on the seed and k.
func (in *Injector) decide() plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	lat := in.rng.Float64()
	rst := in.rng.Float64()
	erro := in.rng.Float64()
	trunc := in.rng.Float64()
	latFrac := in.rng.Float64()

	var p plan
	if lat < in.cfg.PLatency {
		p.delay = time.Duration(latFrac * float64(in.cfg.MaxLatency))
		if p.delay <= 0 {
			p.delay = time.Millisecond
		}
	}
	switch {
	case rst < in.cfg.PReset:
		p.fault = faultReset
	case erro < in.cfg.PError:
		p.fault = faultError
	case trunc < in.cfg.PTruncate:
		p.fault = faultTruncate
	}
	return p
}

// logFault emits one line per injected hard fault (and delayed request)
// when a logger is configured, carrying the request's trace ID so the
// fault correlates with the request log line it disturbed.
func (in *Injector) logFault(r *http.Request, kind string) {
	if in.cfg.Logger == nil {
		return
	}
	in.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "chaos",
		slog.String("kind", kind),
		slog.String("trace_id", r.Header.Get(obs.TraceHeader)),
		slog.String("path", r.URL.Path))
}

// Middleware wraps next with fault injection.
func (in *Injector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.requests.Add(1)
		p := in.decide()
		if p.delay > 0 {
			in.latencies.Add(1)
			in.logFault(r, "latency")
			time.Sleep(p.delay)
		}
		switch p.fault {
		case faultReset:
			in.resets.Add(1)
			in.logFault(r, "reset")
			abortConn(w)
		case faultError:
			in.errors.Add(1)
			in.logFault(r, "error")
			http.Error(w, "chaos: injected failure", http.StatusInternalServerError)
		case faultTruncate:
			in.truncations.Add(1)
			in.logFault(r, "truncate")
			in.truncate(w, r, next)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// abortConn severs the connection before any response bytes. On a TCP
// transport the linger(0) close turns into a genuine RST; elsewhere the
// aborted handler still closes the connection mid-request, which a
// client observes as an unexpected EOF.
func abortConn(w http.ResponseWriter) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		_ = tcp.SetLinger(0)
	}
	_ = conn.Close()
}

// captureWriter buffers a handler's full response so truncate can replay
// a cut-down version of it.
type captureWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (c *captureWriter) Header() http.Header { return c.h }

func (c *captureWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.body = append(c.body, p...)
	return len(p), nil
}

// truncate runs the real handler, then relays its response with a
// Content-Length promising the full body while delivering only half.
// net/http closes a connection whose handler wrote less than it
// declared, so the client's body read ends in io.ErrUnexpectedEOF — a
// detectable, retryable transport fault rather than silent corruption.
func (in *Injector) truncate(w http.ResponseWriter, r *http.Request, next http.Handler) {
	cw := &captureWriter{h: make(http.Header)}
	next.ServeHTTP(cw, r)
	if cw.status == 0 {
		cw.status = http.StatusOK
	}
	claim := len(cw.body)
	if claim < 2 {
		claim = 2 // even an empty body must promise undelivered bytes
	}
	for k, vs := range cw.h {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(claim))
	w.WriteHeader(cw.status)
	_, _ = w.Write(cw.body[:len(cw.body)/2])
}

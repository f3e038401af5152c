// Package server turns the localwm engine into a long-running
// watermarking service: the HTTP surface behind the lwmd daemon.
//
// Three endpoints expose the watermark lifecycle — /v1/embed,
// /v1/detect (batch-shaped), and /v1/verify — over the JSON envelopes of
// the public lwmapi package. Every request carries an optional family
// field ("" means the scheduling family, the original protocol) and is
// dispatched through the internal/family registry to that family's
// Protocol, which carries designs and solutions in the family's own text
// formats (cdfg + schedules for sched, cdfg + template covers for tmwm,
// coloring instances + colorings for gcolor); GET /v1/families
// enumerates what's served. A fourth surface, PUT/GET /v1/designs,
// fronts the content-addressed design registry (internal/store):
// register a design once, then pass its family-salted ref as the
// design_ref of embed/detect/verify requests and skip re-sending (and
// re-parsing) the design text every call.
//
// The robustness model:
//
//   - Admission control. Every endpoint owns a bounded queue drained by a
//     fixed worker pool (Config.*Workers, Config.QueueSize). A full queue
//     rejects immediately with 429 and a Retry-After hint instead of
//     queueing unboundedly; this is the backpressure contract.
//   - Deadlines. Each admitted request carries Config.RequestTimeout. If
//     it expires while the request still waits for a worker, the request
//     is abandoned in place (never runs) and answered 504.
//   - Panic isolation. A panic inside a request is confined to that
//     request (500); the worker, the pool, and the daemon survive.
//   - Graceful drain. Shutdown flips the server into draining mode (new
//     requests get 503), lets queued and in-flight work finish, and only
//     then returns — the SIGTERM path of cmd/lwmd.
//
// Observability is stdlib-only: expvar-style counters, queue depths, and
// p50/p99 latencies on /v1/stats and /debug/vars, and net/http/pprof on
// the debug handler.
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"localwm/internal/chaos"
	"localwm/internal/jobs"
	"localwm/internal/obs"
	"localwm/internal/obs/profiler"
	"localwm/internal/obs/recorder"
	"localwm/internal/store"
	"localwm/internal/tenant"
)

// Endpoint names, used as queue and metrics keys.
const (
	epEmbed   = "embed"
	epDetect  = "detect"
	epVerify  = "verify"
	epDesigns = "designs"
	epJobs    = "jobs"
	epRobust  = "robust"
)

// Config sizes the daemon. The zero value serves with sane defaults.
type Config struct {
	// EmbedWorkers, DetectWorkers, VerifyWorkers size the per-endpoint
	// request worker pools: how many requests of that kind execute
	// concurrently. Zero defaults to 2 for embed/verify (each request
	// runs sequentially, so the host's CPUs serve concurrent requests)
	// and NumCPU for detect (each request fans out itself).
	EmbedWorkers, DetectWorkers, VerifyWorkers int
	// DesignWorkers sizes the design-registry endpoint's worker pool
	// (puts parse and warm a design; gets are cheap). Zero defaults to 2.
	DesignWorkers int
	// JobWorkers sizes the async-job HTTP endpoint's worker pool —
	// submits and status reads, which are cheap; the job executions
	// themselves run on the jobs.Manager's own pool. Zero defaults to 4.
	JobWorkers int
	// RobustWorkers sizes the /v1/robustness endpoint's worker pool: how
	// many synchronous campaigns (and async-campaign submits) run
	// concurrently. Each campaign fans its own attack units out with
	// the request's engine worker count, so a small pool suffices. Zero
	// defaults to 2.
	RobustWorkers int
	// RobustSyncUnits is the largest campaign (in attack units:
	// Σ len(intensities) × trials) answered synchronously; anything
	// bigger — or any request with async set — is dispatched through the
	// job queue and answered with the job status instead. Zero defaults
	// to 32; negative forces every campaign async.
	RobustSyncUnits int
	// QueueSize is each endpoint's pending-request capacity beyond the
	// workers. Zero defaults to 64.
	QueueSize int
	// EngineWorkers is the default fan-out width of a detect batch or a
	// robustness campaign's unit grid, for requests that don't pick their
	// own worker count. Embed and verify run sequentially whatever the
	// value. Zero defaults to NumCPU.
	EngineWorkers int
	// MaxEngineWorkers caps request-supplied worker counts so one client
	// cannot demand an arbitrary fan-out. Zero defaults to 4×NumCPU.
	MaxEngineWorkers int
	// RequestTimeout is the per-request deadline covering both queue wait
	// and execution. Zero defaults to 60s.
	RequestTimeout time.Duration
	// RetryAfter is the backoff hint on 429 responses. Zero defaults
	// to 1s.
	RetryAfter time.Duration
	// MaxBodyBytes bounds request payloads. Zero defaults to 64 MiB.
	MaxBodyBytes int64
	// Store, when non-nil, is the content-addressed design registry
	// behind /v1/designs and the design_ref request fields — typically
	// opened on a -store-dir so it survives restarts. Nil gets a fresh
	// in-memory registry with default sizing, so the designs API and the
	// lwmd_store_* metrics always exist. The store's lifecycle belongs to
	// whoever opened it: the server never closes a Store it was handed
	// (and an in-memory default has nothing to close).
	Store *store.Store
	// Jobs, when non-nil, is the durable async-job manager behind
	// /v1/jobs — typically opened on a -jobs-dir so jobs survive
	// restarts. Nil gets a fresh in-memory manager with default sizing,
	// so the jobs API and the lwmd_jobs_* metrics always exist. New calls
	// Start on it with the server's executor; the lifecycle otherwise
	// follows the Store rule — whoever opened the manager closes it (the
	// server closes only the in-memory default it opened itself).
	Jobs *jobs.Manager
	// Tenants, when non-nil, is the API-key control plane (lwmd
	// -tenants-file): requests authenticate to a tenant, pass its token
	// bucket before entering the admission queue, and operate in its
	// namespace — tenant-salted design refs, scoped job visibility, store
	// quotas on put. Nil serves the pre-tenant single-tenant daemon: every
	// request anonymous, API keys ignored. The registry is hot-reloadable
	// (SIGHUP in cmd/lwmd); the server reads it per request.
	Tenants *tenant.Registry
	// AllowAnonymous admits keyless requests alongside keyed ones when
	// Tenants is set, ORed with the tenants file's allow_anonymous.
	// Anonymous traffic runs unlimited in the "" namespace and is metered
	// under the "anonymous" pseudo-tenant.
	AllowAnonymous bool
	// Chaos, when non-nil, wraps every /v1 API endpoint with the fault
	// injector (lwmd -chaos) — latency, resets, 500s, truncated bodies,
	// deterministically seeded. Liveness and stats endpoints are never
	// injected. Nil (the default) leaves the serving path untouched.
	Chaos *chaos.Injector
	// Logger, when non-nil, makes every API request emit one structured
	// log line (msg="request") with trace ID, endpoint, status, result,
	// and stage timings. Nil (the default) disables request logging; the
	// serving path then pays nothing unless a request carries an
	// X-Lwm-Trace-Id header.
	Logger *slog.Logger
	// Recorder, when non-nil, is the flight recorder (lwmd -trace-retain):
	// every completed request is offered to its tail sampler, retained
	// span trees are served on GET /v1/traces[/{id}], and kept traces
	// stamp exemplars onto the duration histograms. Nil (the default)
	// disables trace retention; the serving path then pays exactly what
	// it did before the recorder existed.
	Recorder *recorder.Recorder
	// Profiler, when non-nil, is the continuous-profiling observatory
	// (lwmd -prof-dir): its snapshots are listed and fetched on
	// GET /v1/profiles[/{name}], and an SLO breach triggers an on-demand
	// capture. The profiler's lifecycle (Start/Close) belongs to whoever
	// built it — cmd/lwmd.
	Profiler *profiler.Profiler
	// SLO, when positive, is the per-endpoint latency objective: when a
	// request finishes slower than SLO and its endpoint's rolling p99 is
	// over SLO too, the profiler (if any) is asked for an on-demand
	// capture. Zero disables the trigger.
	SLO time.Duration
}

func (c Config) withDefaults() Config {
	ncpu := runtime.NumCPU()
	if c.EmbedWorkers <= 0 {
		c.EmbedWorkers = 2
	}
	if c.DetectWorkers <= 0 {
		c.DetectWorkers = ncpu
	}
	if c.VerifyWorkers <= 0 {
		c.VerifyWorkers = 2
	}
	if c.DesignWorkers <= 0 {
		c.DesignWorkers = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 4
	}
	if c.RobustWorkers <= 0 {
		c.RobustWorkers = 2
	}
	if c.RobustSyncUnits == 0 {
		c.RobustSyncUnits = 32
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = ncpu
	}
	if c.MaxEngineWorkers <= 0 {
		c.MaxEngineWorkers = 4 * ncpu
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the watermarking service. Create with New, expose Handler()
// on the service port and DebugHandler() on a loopback-only debug port,
// and call Shutdown on SIGTERM.
type Server struct {
	cfg      Config
	queues   map[string]*queue
	metrics  *metrics
	logger   *slog.Logger
	reg      *obs.Registry
	store    *store.Store
	jobs     *jobs.Manager
	tenants  *tenant.Registry // nil: single-tenant daemon
	meter    *tenant.Meter
	recorder *recorder.Recorder // nil: flight recorder off
	profiler *profiler.Profiler // nil: profiling observatory off
	ownJobs  bool               // the in-memory default is the server's to close
	draining atomic.Bool
	// robustDur is the campaign-duration histogram
	// (lwmd_robust_campaign_seconds), observed by runRobust on both the
	// sync and async execution paths. Set once in buildRegistry.
	robustDur *obs.Histogram

	// testJobStart, when set (tests only), runs at the start of every
	// admitted job, before any work; it may block or panic to script
	// queue-full and panic-isolation scenarios deterministically.
	testJobStart func(endpoint string)
}

// New builds a Server and starts its worker pools.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		// An in-memory open with no Dir cannot fail.
		st, _ = store.Open(store.Config{})
	}
	jm := cfg.Jobs
	ownJobs := false
	if jm == nil {
		// An in-memory open with no Dir cannot fail.
		jm, _ = jobs.Open(jobs.Config{Logger: cfg.Logger})
		ownJobs = true
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(epEmbed, epDetect, epVerify, epDesigns, epJobs, epRobust),
		queues: map[string]*queue{
			epEmbed:   newQueue(cfg.EmbedWorkers, cfg.QueueSize),
			epDetect:  newQueue(cfg.DetectWorkers, cfg.QueueSize),
			epVerify:  newQueue(cfg.VerifyWorkers, cfg.QueueSize),
			epDesigns: newQueue(cfg.DesignWorkers, cfg.QueueSize),
			epJobs:    newQueue(cfg.JobWorkers, cfg.QueueSize),
			epRobust:  newQueue(cfg.RobustWorkers, cfg.QueueSize),
		},
		logger:   cfg.Logger,
		store:    st,
		jobs:     jm,
		tenants:  cfg.Tenants,
		meter:    tenant.NewMeter(),
		recorder: cfg.Recorder,
		profiler: cfg.Profiler,
		ownJobs:  ownJobs,
	}
	s.reg = s.buildRegistry()
	jm.Start(s.execJob)
	return s
}

// Handler returns the service mux: the /v1 API plus /healthz and the
// Prometheus scrape at /metrics. With Config.Chaos set, the API
// endpoints (and only they — liveness, stats, and metrics stay clean)
// pass through the fault injector. The observe middleware wraps outside
// the injector, so even fault-substituted responses are traced and
// logged.
func (s *Server) Handler() http.Handler {
	api := func(name string, allow []string, handle func(r *http.Request) (any, error)) http.Handler {
		h := s.endpoint(name, allow, handle)
		if s.cfg.Chaos != nil {
			h = s.cfg.Chaos.Middleware(h)
		}
		return s.observe(name, h)
	}
	post := []string{http.MethodPost}
	mux := http.NewServeMux()
	mux.Handle("/v1/embed", api(epEmbed, post, s.handleEmbed))
	mux.Handle("/v1/detect", api(epDetect, post, s.handleDetect))
	mux.Handle("/v1/verify", api(epVerify, post, s.handleVerify))
	designs := api(epDesigns, []string{http.MethodPut, http.MethodPost, http.MethodGet}, s.handleDesigns)
	mux.Handle("/v1/designs", designs)
	mux.Handle("/v1/designs/", designs)
	mux.Handle("/v1/robustness", api(epRobust, post, s.handleRobustness))
	mux.Handle("/v1/jobs", api(epJobs, post, s.handleJobSubmit))
	jobsGet := api(epJobs, []string{http.MethodGet}, s.handleJobGet)
	// The SSE stream bypasses the admission queue (it holds a connection
	// for the job's lifetime) and the chaos injector (whose buffered
	// faults don't compose with streaming) but keeps observe, so streams
	// are traced and logged like everything else.
	events := s.observe(epJobs, http.HandlerFunc(s.handleJobEvents))
	mux.Handle("/v1/jobs/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			events.ServeHTTP(w, r)
			return
		}
		jobsGet.ServeHTTP(w, r)
	}))
	// Trace and profile reads are cheap in-memory/disk lookups mounted
	// outside the admission queues (like /v1/stats), but inside observe
	// and authentication: on a tenanted daemon each tenant sees only its
	// own traces.
	s.mountObservatory(mux, true)
	mux.HandleFunc("/v1/families", s.handleFamilies)
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.snapshot())
	})
	mux.Handle("/metrics", s.MetricsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// DebugHandler returns the observability mux: expvar at /debug/vars, the
// server's own snapshot at /debug/lwmd, the Prometheus scrape at
// /metrics, and the pprof suite under /debug/pprof/. Serve it on a
// loopback-only port (-debug-addr).
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	mux.HandleFunc("/debug/lwmd", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.snapshot())
	})
	// The loopback-only debug mux serves the same trace/profile surface
	// unscoped: an operator sees every tenant's retained traces.
	s.mountObservatory(mux, false)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Shutdown drains the server: new requests are rejected with 503 while
// queued and in-flight requests run to completion (bounded by ctx).
// Idempotent. The HTTP listener itself is the caller's to close — in
// cmd/lwmd, http.Server.Shutdown runs after this returns, so responses
// for drained work still reach their clients.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var firstErr error
	for _, q := range s.queues {
		if err := q.drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The in-memory default job manager is the server's own; a manager
	// handed in via Config.Jobs belongs to its opener (cmd/lwmd closes it
	// after this returns, so in-flight job attempts get their own drain).
	if s.ownJobs {
		if err := s.jobs.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// writeJSON writes v with the given status. Encoding errors past the
// header are unrecoverable mid-stream and intentionally dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

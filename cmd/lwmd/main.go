// Command lwmd is the local-watermarking service daemon: the engine
// behind cmd/lwm exposed as a long-running HTTP service.
//
//	lwmd -addr :8077 [-debug-addr 127.0.0.1:8078] [flags]
//
// Endpoints (POST, JSON; designs in the cdfg text format, schedules in
// the lwm schedule text format):
//
//	/v1/embed    embed scheduling watermarks into a design
//	/v1/detect   batch-scan suspects×records for memorized watermarks
//	/v1/verify   adjudicate an ownership claim from a signature alone
//	/v1/designs  content-addressed design registry (PUT to register,
//	             GET /v1/designs/{ref} to fetch); embed/detect/verify
//	             accept "design_ref" in place of inline "design"
//	/v1/jobs     async jobs: POST submits an embed/detect/verify payload
//	             to the durable job queue; GET /v1/jobs/{id} reads status
//	             (?wait= long-polls), /v1/jobs/{id}/result returns the
//	             stored response byte-identical to the sync endpoint's,
//	             /v1/jobs/{id}/events streams transitions as SSE. With
//	             -jobs-dir, jobs survive restarts — even SIGKILL — via a
//	             write-ahead log; failed attempts retry under capped
//	             full-jitter backoff, and -webhook-secret signs the
//	             terminal-status push a job's webhook_url receives.
//	/v1/robustness
//	             run a seeded attack campaign against a re-marked design
//	             and answer the structured survival report. Campaigns up
//	             to -robust-sync-units attack units run inline; larger
//	             (or "async": true) ones are queued as durable jobs and
//	             answered with the job status — the stored result is the
//	             same envelope the synchronous path answers, byte for
//	             byte.
//	/v1/traces   flight recorder (GET; requires -trace-retain): list
//	             retained traces with endpoint/result/reason/min_duration
//	             filters, GET /v1/traces/{id} for one trace's full span
//	             tree, stage timings, and engine counter deltas
//	/v1/profiles profiling observatory (GET; requires -prof-dir): list
//	             resident pprof snapshots, GET /v1/profiles/{name} for
//	             raw pprof bytes (`go tool pprof` or `lwm prof`)
//	/v1/stats    metrics snapshot (also on the debug port)
//	/metrics     Prometheus text exposition (also on the debug port)
//	/healthz     liveness (503 while draining)
//
// The design registry caches parsed graphs with warmed longest-path
// oracles, so repeat requests against a registered design skip parsing
// and oracle warmup entirely. It is bounded (-store-capacity, LRU
// eviction) and optionally persistent: with -store-dir the registry
// journals puts to an append-only WAL with snapshot compaction and
// replays it on startup, so references survive daemon restarts.
//
// Observability: every API request emits one structured log line
// (-log-format text|json, -log-level debug|info|warn|error) carrying the
// request's trace ID — adopted from the client's X-Lwm-Trace-Id header
// or minted — plus status, result, and queue-wait/run/engine stage
// timings. GET /metrics serves the same counters as fixed-bucket
// Prometheus histograms and counters for scraping; /debug/vars keeps the
// expvar snapshot for dashboards.
//
// Flight recorder (-trace-retain N): completed requests become span-tree
// trace entries in a bounded in-memory ring under tail-based sampling —
// every error/timeout/rejection is kept, the slowest N per endpoint per
// rolling window are kept, and the unremarkable rest is sampled at
// -trace-sample. Retained traces are served on /v1/traces, and duration
// histogram buckets on /metrics carry exemplars naming a retained trace
// ID, so a latency spike on a dashboard links straight to a concrete
// trace. On a tenanted daemon the listing and lookups are scoped to the
// calling tenant. Disabled (the default), the recorder costs nothing.
//
// Profiling observatory (-prof-dir DIR): the daemon captures CPU, heap,
// and allocs pprof snapshots into DIR — periodically with -prof-interval,
// and on demand when an endpoint breaches -slo-ms with its rolling p99
// above the SLO (debounced). Retention keeps the newest -prof-retain
// snapshots per kind. Snapshots are listed and fetched on /v1/profiles;
// `lwm prof` lists, fetches, and diffs them without external tooling.
//
// Robustness: each endpoint runs behind a bounded admission queue with a
// fixed worker pool; a full queue answers 429 with Retry-After, a request
// whose deadline expires while queued answers 504, and a panic is
// confined to its request (500). SIGINT/SIGTERM starts a graceful drain:
// new work is rejected with 503 while queued and in-flight requests
// finish, then the listener closes.
//
// Multi-tenancy: -tenants-file names a JSON file of tenants and their
// API keys; with it set, every /v1 request authenticates via the
// X-Lwm-Api-Key header (or an Authorization: Bearer token) and runs
// under its tenant's rate limit, store quota, and job-backlog bound,
// with designs namespaced per tenant. SIGHUP re-reads the file without
// a restart — keys can be added or revoked live. -allow-anonymous (or
// "allow_anonymous" in the file) keeps admitting keyless requests
// alongside keyed ones; without a tenants file the daemon behaves
// exactly as before.
//
// The debug port (loopback by default; never expose it) serves expvar at
// /debug/vars, the lwmd metrics snapshot at /debug/lwmd, and net/http/
// pprof under /debug/pprof/.
//
// -chaos (testing only, off by default) routes the /v1 API through the
// internal/chaos fault injector: seeded, deterministic latency,
// connection resets, 500s, and truncated bodies, counted on the metrics
// snapshot. It exists to exercise the resilient client (lwmclient); the
// daemon's responses with -chaos off are byte-identical to a build
// without the chaos layer.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"localwm/internal/chaos"
	"localwm/internal/jobs"
	"localwm/internal/obs"
	"localwm/internal/obs/profiler"
	"localwm/internal/obs/recorder"
	"localwm/internal/server"
	"localwm/internal/store"
	"localwm/internal/tenant"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lwmd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lwmd", flag.ExitOnError)
	addr := fs.String("addr", ":8077", "service listen address")
	debugAddr := fs.String("debug-addr", "", "debug listen address for expvar/pprof (empty: disabled; keep loopback-only)")
	queueSize := fs.Int("queue", 64, "per-endpoint pending-request capacity")
	embedWorkers := fs.Int("embed-workers", 2, "concurrent embed requests")
	detectWorkers := fs.Int("detect-workers", runtime.NumCPU(), "concurrent detect requests")
	verifyWorkers := fs.Int("verify-workers", 2, "concurrent verify requests")
	engineWorkers := fs.Int("engine-workers", runtime.NumCPU(), "default fan-out width per detect batch or campaign grid")
	maxEngineWorkers := fs.Int("max-engine-workers", 4*runtime.NumCPU(), "cap on request-supplied fan-out width")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request deadline (queue wait + execution)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight work on shutdown")
	designWorkers := fs.Int("design-workers", 2, "concurrent design-registry requests")
	storeDir := fs.String("store-dir", "", "design-registry persistence directory (empty: in-memory only)")
	storeCapacity := fs.Int("store-capacity", 0, "design-registry entries before LRU eviction (0: default 1024)")
	jobsDir := fs.String("jobs-dir", "", "async-job persistence directory (empty: in-memory only, jobs die with the daemon)")
	jobsWorkers := fs.Int("jobs-workers", 2, "concurrent async-job executions")
	robustWorkers := fs.Int("robust-workers", 2, "concurrent synchronous robustness campaigns")
	robustSyncUnits := fs.Int("robust-sync-units", 32, "largest campaign (attack units) answered synchronously; bigger ones queue as jobs (negative: queue everything)")
	jobsMaxAttempts := fs.Int("jobs-max-attempts", 0, "default per-job retry budget (0: default 3)")
	webhookSecret := fs.String("webhook-secret", "", "HMAC key for signing job-completion webhooks (empty: deliveries unsigned)")
	tenantsFile := fs.String("tenants-file", "", "JSON tenants file enabling the API-key control plane (empty: single-tenant, no auth); SIGHUP re-reads it")
	allowAnonymous := fs.Bool("allow-anonymous", false, "with -tenants-file, keep admitting keyless requests alongside keyed ones")
	traceRetain := fs.Int("trace-retain", 0, "flight-recorder capacity: completed traces retained by tail sampling (0: recorder disabled)")
	traceSample := fs.Float64("trace-sample", 0.05, "probability an unremarkable (non-error, non-slow) trace is retained")
	profDir := fs.String("prof-dir", "", "pprof snapshot directory enabling the profiling observatory (empty: disabled)")
	profInterval := fs.Duration("prof-interval", 0, "periodic cpu/heap/allocs capture interval (0: on-demand captures only)")
	profRetain := fs.Int("prof-retain", 4, "pprof snapshots kept per kind before pruning")
	sloMS := fs.Int("slo-ms", 0, "per-endpoint latency SLO in milliseconds; a breach with rolling p99 over it triggers a profile capture (0: disabled)")
	chaosOn := fs.Bool("chaos", false, "inject seeded transport faults into the /v1 API (testing only, never production)")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault-injection seed; a given seed and request order replays the same faults")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn, or error")
	logFormat := fs.String("log-format", "text", "log format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		return err
	}

	var reg *tenant.Registry
	if *tenantsFile != "" {
		reg, err = tenant.Load(*tenantsFile)
		if err != nil {
			return fmt.Errorf("loading tenants file: %w", err)
		}
		logger.Info("tenant control plane enabled", "file", *tenantsFile,
			"tenants", len(reg.All()), "allow_anonymous", *allowAnonymous || reg.AllowAnonymous())
	}

	st, err := store.Open(store.Config{Dir: *storeDir, Capacity: *storeCapacity})
	if err != nil {
		return fmt.Errorf("opening design registry: %w", err)
	}
	defer st.Close()
	if *storeDir != "" {
		logger.Info("design registry persistent", "dir", *storeDir, "entries", st.Len())
	}

	jcfg := jobs.Config{
		Dir:                *jobsDir,
		Workers:            *jobsWorkers,
		DefaultMaxAttempts: *jobsMaxAttempts,
		Webhook:            jobs.WebhookConfig{Secret: *webhookSecret},
		Logger:             logger,
	}
	if reg != nil {
		jcfg.SecretFor = func(id string) string {
			if t := reg.ByID(id); t != nil {
				return t.WebhookSecret
			}
			return ""
		}
	}
	jm, err := jobs.Open(jcfg)
	if err != nil {
		return fmt.Errorf("opening job store: %w", err)
	}
	if *jobsDir != "" {
		jc := jm.Counters()
		logger.Info("job store persistent", "dir", *jobsDir,
			"resident", jc.Jobs, "requeued", jc.Queued)
	}

	cfg := server.Config{
		EmbedWorkers:     *embedWorkers,
		DetectWorkers:    *detectWorkers,
		VerifyWorkers:    *verifyWorkers,
		DesignWorkers:    *designWorkers,
		RobustWorkers:    *robustWorkers,
		RobustSyncUnits:  *robustSyncUnits,
		QueueSize:        *queueSize,
		EngineWorkers:    *engineWorkers,
		MaxEngineWorkers: *maxEngineWorkers,
		RequestTimeout:   *timeout,
		Logger:           logger,
		Store:            st,
		Jobs:             jm,
		Tenants:          reg,
		AllowAnonymous:   *allowAnonymous,
		SLO:              time.Duration(*sloMS) * time.Millisecond,
	}
	if *traceRetain > 0 {
		cfg.Recorder = recorder.New(recorder.Config{
			Capacity:   *traceRetain,
			SampleRate: *traceSample,
			Seed:       time.Now().UnixNano(), // tests pin seeds; production wants variety
		})
		logger.Info("flight recorder enabled", "retain", *traceRetain, "sample", *traceSample)
	}
	var prof *profiler.Profiler
	if *profDir != "" {
		prof, err = profiler.New(profiler.Config{
			Dir:      *profDir,
			Interval: *profInterval,
			Retain:   *profRetain,
			Logger:   logger,
		})
		if err != nil {
			return fmt.Errorf("opening profile directory: %w", err)
		}
		cfg.Profiler = prof
		logger.Info("profiling observatory enabled", "dir", *profDir,
			"interval", profInterval.String(), "retain", *profRetain)
	}
	if *chaosOn {
		ccfg := chaos.Default(*chaosSeed)
		ccfg.Logger = logger
		cfg.Chaos = chaos.New(ccfg)
		logger.Warn("CHAOS MODE: injecting seeded faults into /v1 — never run this in production",
			"seed", *chaosSeed)
	}
	srv := server.New(cfg)
	srv.Publish() // expose the metrics snapshot as the expvar "lwmd"
	prof.Start()  // periodic capture loop; no-op when nil or -prof-interval is 0

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Header/read/idle timeouts bound connection lifetimes: without them
	// a slowloris client that trickles header bytes (or never finishes a
	// body) holds its connection — and eventually a worker goroutine —
	// forever. Reads get the request deadline plus slack for the body of
	// a legitimately slow uploader; writes stay unbounded because
	// drained responses may legitimately outlive the request deadline.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Info("serving", "addr", ln.Addr().String())

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		debugSrv = &http.Server{
			Handler:           srv.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		logger.Info("debug (expvar/pprof) serving", "addr", dln.Addr().String())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGHUP hot-reloads the tenants file: keys appear/vanish for the
	// very next request, no restart, no dropped connections. A reload
	// that fails to parse keeps serving the previous tenant set.
	if reg != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if err := reg.Reload(); err != nil {
					logger.Error("tenants reload failed, keeping previous set", "err", err)
					continue
				}
				logger.Info("tenants reloaded", "file", *tenantsFile, "tenants", len(reg.All()))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		logger.Info("draining (in-flight requests finish, new ones get 503)", "signal", got.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain", "err", err)
	}
	// Close the job manager after the HTTP drain: running job attempts
	// finish within the drain budget, queued jobs stay durable in the WAL
	// (picked up by the next start with the same -jobs-dir).
	if err := jm.Close(ctx); err != nil {
		logger.Error("job drain", "err", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("closing listener: %w", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	prof.Close() // stop the capture loop and wait out an in-flight cycle
	logger.Info("drained, bye")
	return nil
}

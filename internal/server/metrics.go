package server

import (
	"net/http"
	"sort"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/engine"
	"localwm/internal/family"
	"localwm/internal/jobs"
	"localwm/internal/obs"
	"localwm/internal/obs/profiler"
	"localwm/internal/obs/recorder"
	"localwm/internal/robust"
	"localwm/internal/store"
	"localwm/internal/tenant"
	"localwm/lwmapi"
)

// endpointMetrics is one endpoint's registry series.
type endpointMetrics struct {
	// lwmd_requests_total, by result.
	ok       *obs.Counter // finished with a 2xx
	failed   *obs.Counter // finished with a 4xx/5xx other than below
	rejected *obs.Counter // 429: queue full or tenant rate limit
	timedOut *obs.Counter // 504: deadline expired while queued/running
	panicked *obs.Counter // 500: job panic confined by the pool
	drained  *obs.Counter // 503: rejected because the daemon is draining

	hist      *obs.Histogram // request duration (admitted requests)
	queueWait *obs.Histogram // submit-to-start wait (requests that ran)
}

// familyMetrics is one (family, endpoint) cell of the per-family
// request counters: how many requests dispatched through that family's
// protocol on that endpoint, and how many of them errored. Cells exist
// statically for every registered family × compute endpoint, so the
// scrape always shows the full label space (at zero) and a dashboard can
// alert on a family that never sees traffic.
type familyMetrics struct {
	requests, errors *obs.Counter
}

// metrics holds the registry series the request path bumps directly.
type metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	families  map[string]map[string]*familyMetrics // family → endpoint
}

// familyEndpoints are the endpoints that dispatch through the family
// registry and therefore carry per-family series.
var familyEndpoints = []string{epEmbed, epDetect, epVerify, epDesigns, epRobust}

// observeFamily counts one family-dispatched request on an endpoint.
// Unknown (family, endpoint) pairs are dropped — the label space is the
// static registry cross compute endpoints, never request-supplied text.
func (m *metrics) observeFamily(fam, endpoint string, err error) {
	fm := m.families[fam][endpoint]
	if fm == nil {
		return
	}
	fm.requests.Inc()
	if err != nil {
		fm.errors.Inc()
	}
}

// buildRegistry assembles the server's registry, the daemon's one
// metrics store: per-endpoint request counters and latency/queue-wait
// histograms, queue gauges, the process-wide engine and oracle counters,
// the optional chaos, recorder and profiler families, and the per-tenant
// families. It fills s.metrics with the series the request path bumps.
// Called once from New, after the queues exist.
func (s *Server) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	s.metrics = &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics, len(s.queues)),
		families:  make(map[string]map[string]*familyMetrics),
	}

	names := make([]string, 0, len(s.queues))
	for name := range s.queues {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		q := s.queues[name]
		lbl := map[string]string{"endpoint": name}
		res := func(result string) *obs.Counter {
			return r.Counter("lwmd_requests_total",
				"Finished requests by endpoint and result (ok, error, rejected, timeout, panic, drained).",
				map[string]string{"endpoint": name, "result": result})
		}
		// Fields in registration order, which is the series order on
		// /metrics.
		em := &endpointMetrics{
			hist: r.Histogram("lwmd_request_duration_seconds",
				"Admitted request duration (queue wait + execution), by endpoint.", nil, lbl),
			queueWait: r.Histogram("lwmd_queue_wait_seconds",
				"Admission-queue wait before a worker picked the request up, by endpoint.", nil, lbl),
			ok:       res("ok"),
			failed:   res("error"),
			rejected: res("rejected"),
			timedOut: res("timeout"),
			panicked: res("panic"),
			drained:  res("drained"),
		}
		s.metrics.endpoints[name] = em
		r.GaugeFunc("lwmd_queue_depth",
			"Queued plus currently executing requests, by endpoint.", lbl,
			func() float64 { return float64(q.depth()) })
		r.GaugeFunc("lwmd_queue_capacity",
			"Pending-request capacity of the admission queue, by endpoint.", lbl,
			func() float64 { return float64(cap(q.tasks)) })
	}

	// Per-family request counters, one series per registered family ×
	// family-dispatched endpoint, present (at zero) from startup.
	for _, fam := range family.Names() {
		per := make(map[string]*familyMetrics, len(familyEndpoints))
		for _, ep := range familyEndpoints {
			lbl := map[string]string{"family": fam, "endpoint": ep}
			per[ep] = &familyMetrics{
				requests: r.Counter("lwmd_family_requests_total",
					"Requests dispatched through a watermark family's protocol, by family and endpoint.", lbl),
				errors: r.Counter("lwmd_family_errors_total",
					"Family-dispatched requests that returned an error, by family and endpoint.", lbl),
			}
		}
		s.metrics.families[fam] = per
	}

	r.GaugeFunc("lwmd_draining",
		"1 while the daemon rejects new work during graceful shutdown, else 0.", nil,
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("lwmd_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.metrics.start).Seconds() })

	// Design-registry series. Counters first, then the gauges that track
	// the resident set.
	for _, sc := range []struct {
		name, help string
		load       func(store.Counters) uint64
	}{
		{"lwmd_store_hits_total", "Design-registry lookups that resolved.",
			func(c store.Counters) uint64 { return c.Hits }},
		{"lwmd_store_misses_total", "Design-registry lookups that missed (never put, or evicted).",
			func(c store.Counters) uint64 { return c.Misses }},
		{"lwmd_store_puts_total", "Designs inserted into the registry (refreshes excluded).",
			func(c store.Counters) uint64 { return c.Puts }},
		{"lwmd_store_evictions_total", "Designs dropped from the registry by LRU capacity pressure.",
			func(c store.Counters) uint64 { return c.Evictions }},
		{"lwmd_store_compactions_total", "Write-ahead-log snapshot+truncate cycles.",
			func(c store.Counters) uint64 { return c.Compactions }},
	} {
		load := sc.load
		r.CounterFunc(sc.name, sc.help, nil,
			func() float64 { return float64(load(s.store.Counters())) })
	}
	for _, sg := range []struct {
		name, help string
		load       func(store.Counters) int64
	}{
		{"lwmd_store_entries", "Designs currently resident in the registry.",
			func(c store.Counters) int64 { return c.Entries }},
		{"lwmd_store_bytes", "Canonical text bytes of the resident designs.",
			func(c store.Counters) int64 { return c.Bytes }},
		{"lwmd_store_wal_bytes", "Current write-ahead-log size (0 for an in-memory registry).",
			func(c store.Counters) int64 { return c.WALBytes }},
	} {
		load := sg.load
		r.GaugeFunc(sg.name, sg.help, nil,
			func() float64 { return float64(load(s.store.Counters())) })
	}

	// Async-job series, read through the manager's counter snapshot.
	for _, jc := range []struct {
		name, help string
		load       func(jobs.Counters) uint64
	}{
		{"lwmd_jobs_submitted_total", "Async jobs created (idempotency-key dedup hits excluded).",
			func(c jobs.Counters) uint64 { return c.Submitted }},
		{"lwmd_jobs_deduped_total", "Async job submissions answered by an existing job via idempotency key.",
			func(c jobs.Counters) uint64 { return c.Deduped }},
		{"lwmd_jobs_completed_total", "Async jobs that reached the done state.",
			func(c jobs.Counters) uint64 { return c.Completed }},
		{"lwmd_jobs_failed_total", "Async jobs that reached the failed state (permanent error or retry budget exhausted).",
			func(c jobs.Counters) uint64 { return c.Failed }},
		{"lwmd_jobs_retries_total", "Async job execution attempts beyond each job's first.",
			func(c jobs.Counters) uint64 { return c.Retries }},
		{"lwmd_jobs_webhook_deliveries_total", "Terminal-status webhook pushes acknowledged with a 2xx.",
			func(c jobs.Counters) uint64 { return c.WebhookDeliveries }},
		{"lwmd_jobs_webhook_failures_total", "Terminal-status webhook pushes abandoned after delivery retries.",
			func(c jobs.Counters) uint64 { return c.WebhookFailures }},
		{"lwmd_jobs_evictions_total", "Terminal async jobs dropped by retention.",
			func(c jobs.Counters) uint64 { return c.Evictions }},
		{"lwmd_jobs_compactions_total", "Job write-ahead-log snapshot+truncate cycles.",
			func(c jobs.Counters) uint64 { return c.Compactions }},
	} {
		load := jc.load
		r.CounterFunc(jc.name, jc.help, nil,
			func() float64 { return float64(load(s.jobs.Counters())) })
	}
	for _, jg := range []struct {
		name, help string
		load       func(jobs.Counters) int64
	}{
		{"lwmd_jobs_queued", "Async jobs currently queued (including retry-delayed).",
			func(c jobs.Counters) int64 { return c.Queued }},
		{"lwmd_jobs_running", "Async jobs currently executing.",
			func(c jobs.Counters) int64 { return c.Running }},
		{"lwmd_jobs_resident", "Async jobs resident in the store, any state.",
			func(c jobs.Counters) int64 { return c.Jobs }},
		{"lwmd_jobs_wal_bytes", "Current job write-ahead-log size (0 for an in-memory manager).",
			func(c jobs.Counters) int64 { return c.WALBytes }},
	} {
		load := jg.load
		r.GaugeFunc(jg.name, jg.help, nil,
			func() float64 { return float64(load(s.jobs.Counters())) })
	}

	// Robustness-campaign series: the process-wide campaign counters plus
	// the per-server campaign duration histogram, observed on both the
	// sync and async execution paths.
	s.robustDur = r.Histogram("lwmd_robust_campaign_seconds",
		"Robustness campaign duration (re-marking, attack battery, and detection sweeps).", nil, nil)
	for _, rc := range []struct {
		name, help string
		load       func(robust.Counters) uint64
	}{
		{"lwmd_robust_campaigns_total", "Robustness campaigns run (process-wide; failures included).",
			func(c robust.Counters) uint64 { return c.Campaigns }},
		{"lwmd_robust_units_total", "Attack units executed across all campaigns (process-wide).",
			func(c robust.Counters) uint64 { return c.Units }},
		{"lwmd_robust_unit_errors_total", "Attack units that ended in an error instead of a verdict (process-wide).",
			func(c robust.Counters) uint64 { return c.UnitErrors }},
		{"lwmd_robust_scans_total", "Per-locality detections re-run after attacks (process-wide).",
			func(c robust.Counters) uint64 { return c.Scans }},
		{"lwmd_robust_survivals_total", "Post-attack scans in which the locality was still detected (process-wide).",
			func(c robust.Counters) uint64 { return c.Survivals }},
	} {
		load := rc.load
		r.CounterFunc(rc.name, rc.help, nil,
			func() float64 { return float64(load(robust.Stats())) })
	}

	for _, ec := range []struct {
		name, help string
		load       func() uint64
	}{
		{"lwmd_engine_pool_runs_total", "Worker-pool fan-outs (detect batches, robustness grids) started (process-wide).",
			func() uint64 { return engine.Stats().PoolRuns }},
		{"lwmd_engine_pool_jobs_total", "Jobs executed across all engine fan-outs (process-wide).",
			func() uint64 { return engine.Stats().PoolJobs }},
		{"lwmd_oracle_hits_total", "PathOracle longest-path cache hits (process-wide).",
			func() uint64 { h, _ := cdfg.OracleStats(); return h }},
		{"lwmd_oracle_misses_total", "PathOracle lookups that recomputed longest paths (process-wide).",
			func() uint64 { _, m := cdfg.OracleStats(); return m }},
	} {
		load := ec.load
		r.CounterFunc(ec.name, ec.help, nil, func() float64 { return float64(load()) })
	}

	if inj := s.cfg.Chaos; inj != nil {
		r.CounterFunc("lwmd_chaos_requests_total",
			"Requests seen by the fault injector.", nil,
			func() float64 { return float64(inj.Counters().Requests) })
		for _, fc := range []struct {
			kind string
			load func() uint64
		}{
			{"latency", func() uint64 { return inj.Counters().Latencies }},
			{"reset", func() uint64 { return inj.Counters().Resets }},
			{"error", func() uint64 { return inj.Counters().Errors }},
			{"truncate", func() uint64 { return inj.Counters().Truncations }},
		} {
			load := fc.load
			r.CounterFunc("lwmd_chaos_faults_total",
				"Injected faults by kind (latency, reset, error, truncate).",
				map[string]string{"kind": fc.kind},
				func() float64 { return float64(load()) })
		}
	}

	// Runtime vitals, bridged from runtime/metrics on every scrape.
	// Always registered: they cost one metrics.Read per series per scrape
	// and are the first thing an operator wants when the daemon misbehaves.
	r.GaugeFunc("lwmd_go_goroutines", "Live goroutines in the daemon process.", nil,
		func() float64 { return readRuntimeStat(runtimeGoroutines) })
	r.GaugeFunc("lwmd_go_heap_bytes", "Bytes of live heap objects (runtime/metrics /memory/classes/heap/objects).", nil,
		func() float64 { return readRuntimeStat(runtimeHeapBytes) })
	r.CounterFunc("lwmd_go_gc_pause_seconds", "Cumulative GC stop-the-world pause time, seconds.", nil,
		func() float64 { return readRuntimeStat(runtimeGCPauses) })

	// Flight-recorder series, present only when the recorder is enabled
	// (same gating discipline as the chaos family above).
	if rec := s.recorder; rec != nil {
		r.CounterFunc("lwmd_trace_recorded_total", "Completed requests offered to the flight recorder.", nil,
			func() float64 { return float64(rec.Counters().Recorded) })
		for _, kc := range []struct {
			reason string
			load   func(recorder.Counters) uint64
		}{
			{recorder.KeepError, func(c recorder.Counters) uint64 { return c.KeptError }},
			{recorder.KeepSlow, func(c recorder.Counters) uint64 { return c.KeptSlow }},
			{recorder.KeepSampled, func(c recorder.Counters) uint64 { return c.KeptSampled }},
		} {
			load := kc.load
			r.CounterFunc("lwmd_trace_kept_total",
				"Traces retained by the tail sampler, by keep reason (error, slow, sampled).",
				map[string]string{"reason": kc.reason},
				func() float64 { return float64(load(rec.Counters())) })
		}
		r.CounterFunc("lwmd_trace_dropped_total", "Completed requests the tail sampler dropped.", nil,
			func() float64 { return float64(rec.Counters().Dropped) })
		r.CounterFunc("lwmd_trace_evicted_total", "Retained traces evicted by the ring bound.", nil,
			func() float64 { return float64(rec.Counters().Evicted) })
		r.GaugeFunc("lwmd_trace_resident", "Traces currently retained.", nil,
			func() float64 { return float64(rec.Counters().Resident) })
		r.GaugeFunc("lwmd_trace_capacity", "Configured flight-recorder ring capacity.", nil,
			func() float64 { return float64(rec.Capacity()) })
	}

	// Profiling-observatory series, present only when -prof-dir is set.
	if prof := s.profiler; prof != nil {
		for _, pc := range []struct {
			name, help string
			load       func(profiler.Counters) uint64
		}{
			{"lwmd_prof_captures_total", "pprof snapshots written (all kinds).",
				func(c profiler.Counters) uint64 { return c.Captures }},
			{"lwmd_prof_cycles_total", "Capture cycles completed (periodic and triggered).",
				func(c profiler.Counters) uint64 { return c.Cycles }},
			{"lwmd_prof_triggered_total", "Capture cycles started by an SLO breach trigger.",
				func(c profiler.Counters) uint64 { return c.Triggered }},
			{"lwmd_prof_errors_total", "Snapshot writes that failed.",
				func(c profiler.Counters) uint64 { return c.Errors }},
			{"lwmd_prof_pruned_total", "Snapshots removed by per-kind retention.",
				func(c profiler.Counters) uint64 { return c.Pruned }},
		} {
			load := pc.load
			r.CounterFunc(pc.name, pc.help, nil,
				func() float64 { return float64(load(prof.Counters())) })
		}
		r.GaugeFunc("lwmd_prof_snapshots", "pprof snapshots currently resident on disk.", nil,
			func() float64 { return float64(prof.Counters().Snapshots) })
		r.GaugeFunc("lwmd_prof_bytes", "Bytes of resident pprof snapshots.", nil,
			func() float64 { return float64(prof.Counters().Bytes) })
	}

	// Per-tenant series, last: the tenant set changes on SIGHUP, so each
	// family reads the meter at exposition time, one series per tenant,
	// sorted by tenant.
	for _, tf := range []struct {
		name, typ, help string
		value           func(u tenant.Usage) float64
	}{
		{"lwmd_tenant_requests_total", "counter", "Authenticated requests per tenant.",
			func(u tenant.Usage) float64 { return float64(u.Requests) }},
		{"lwmd_tenant_rate_limited_total", "counter", "Requests rejected by the tenant token bucket.",
			func(u tenant.Usage) float64 { return float64(u.RateLimited) }},
		{"lwmd_tenant_quota_denied_total", "counter", "Store writes rejected by tenant quota.",
			func(u tenant.Usage) float64 { return float64(u.QuotaDenied) }},
		{"lwmd_tenant_engine_seconds_total", "counter", "Engine wall-clock seconds spent per tenant.",
			func(u tenant.Usage) float64 { return float64(u.EngineMillis) / 1e3 }},
		{"lwmd_tenant_jobs_submitted_total", "counter", "Async jobs accepted per tenant.",
			func(u tenant.Usage) float64 { return float64(u.JobsSubmitted) }},
		{"lwmd_tenant_campaigns_total", "counter", "Robustness campaigns run per tenant.",
			func(u tenant.Usage) float64 { return float64(u.Campaigns) }},
		{"lwmd_tenant_store_bytes", "gauge", "Resident design-registry bytes per tenant.",
			func(u tenant.Usage) float64 { return float64(u.StoreBytes) }},
		{"lwmd_tenant_store_entries", "gauge", "Resident design-registry entries per tenant.",
			func(u tenant.Usage) float64 { return float64(u.StoreEntries) }},
	} {
		value := tf.value
		r.SeriesFunc(tf.name, tf.help, tf.typ, func() []obs.Sample {
			snap := s.meter.Snapshot(s.storeUsageOf)
			ids := make([]string, 0, len(snap))
			for id := range snap {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			out := make([]obs.Sample, len(ids))
			for i, id := range ids {
				out[i] = obs.Sample{Labels: map[string]string{"tenant": id}, Value: value(snap[id])}
			}
			return out
		})
	}
	return r
}

// MetricsHandler serves the server's registry in the Prometheus text
// exposition format — mounted at GET /metrics on both the service and
// debug muxes.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			writeError(w, http.StatusMethodNotAllowed, lwmapi.CodeMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.reg.WritePrometheus(w)
	})
}

// handleStats serves GET /v1/stats: the registry's families and series,
// the same ones /metrics serves, rendered as JSON (obs.Registry.WriteJSON).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.reg.WriteJSON(w)
}

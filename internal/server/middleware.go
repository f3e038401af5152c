package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"localwm/internal/obs"
	"localwm/lwmapi"
)

// apiError is a handler-produced failure with a definite HTTP status and
// a wire error code from the lwmapi table. retryAfter, when positive,
// rides out as a Retry-After header — the job-status "come back later"
// hint.
type apiError struct {
	status     int
	code       string
	msg        string
	retryAfter time.Duration
}

func (e *apiError) Error() string { return e.msg }

// rawResponse short-circuits the endpoint success path: the body bytes
// are written verbatim instead of re-marshaled. GET /v1/jobs/{id}/result
// returns one so a stored job result reaches the client byte-identical
// to the synchronous endpoint's answer.
type rawResponse struct {
	status      int
	contentType string
	body        []byte
}

// badRequest builds the 400 an endpoint returns for malformed payloads.
func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, code: lwmapi.CodeBadRequest,
		msg: fmt.Sprintf(format, args...)}
}

// refNotFound builds the 404 a design_ref that doesn't resolve answers.
func refNotFound(ref string) error {
	return &apiError{status: http.StatusNotFound, code: lwmapi.CodeDesignNotFound,
		msg: fmt.Sprintf("design_ref %s: not in registry (never put, or evicted)", ref)}
}

// writeError renders the lwmapi.Error envelope: the typed code plus the
// PR-4 legacy keys ("error", "status"), so old clients keep decoding.
// Retryable is stamped from the status table plus the per-code table
// (job_not_ready is retryable despite its non-retryable 409 status).
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, lwmapi.Error{
		Code:          code,
		Message:       msg,
		Retryable:     lwmapi.RetryableStatus(status) || lwmapi.RetryableCode(code),
		LegacyMessage: msg,
		Status:        status,
	})
}

// retryAfterSeconds renders Config.RetryAfter as the whole-second header
// value shared by the 429 and drain-time 503 responses.
func (s *Server) retryAfterSeconds() string {
	return ceilSeconds(s.cfg.RetryAfter)
}

// ceilSeconds renders a backoff hint as a whole-second Retry-After
// value, rounded up so a sub-second hint never becomes "0".
func ceilSeconds(d time.Duration) string {
	if d <= 0 {
		d = time.Second
	}
	return strconv.Itoa(int((d + time.Second - 1) / time.Second))
}

// reqInfo is the per-request observability carrier: the admission path
// (endpoint) fills in stage timings and the outcome, the observe
// middleware — which sits outside the chaos injector, so even a
// fault-substituted response passes through it — turns the whole thing
// into exactly one structured request log line.
type reqInfo struct {
	queueWait time.Duration
	run       time.Duration
	result    string
	errMsg    string
	// tenant and designRef enrich the flight-recorder entry: the
	// admission path stamps the authenticated namespace, resolveDesign
	// stamps the registry reference a request resolved (if any).
	tenant    string
	designRef string
	// elapsed is the full admission-to-answer duration the endpoint
	// observed into its histogram — the exemplar value, so an exemplar
	// always lands in the bucket of the observation it annotates.
	elapsed time.Duration
	// echoTraceID, when set by a handler, overrides the response's
	// X-Lwm-Trace-Id — GET /v1/jobs/{id} echoes the job's persisted
	// trace ID so the submit→execute→deliver chain shares one ID.
	echoTraceID string
}

type reqInfoKey struct{}

func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter captures the response status for the request log. It
// forwards Hijack so the chaos injector's connection resets still work
// through it (a hijacked connection leaves status 0), and Flush so the
// job event stream still streams through it.
type statusWriter struct {
	http.ResponseWriter
	status   int
	hijacked bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, errors.New("server: underlying ResponseWriter does not support hijacking")
	}
	w.hijacked = true
	return hj.Hijack()
}

// observe wraps an API endpoint (outside the chaos injector) with
// request correlation and logging: it adopts the client's
// X-Lwm-Trace-Id (or mints one), attaches an obs.Trace with a root
// "request" span to the context, echoes the trace ID on the response,
// and — when a logger is configured — emits exactly one structured
// request log line whatever the outcome, including requests the chaos
// layer reset or substituted.
//
// The disabled path is free: with no logger and no incoming trace
// header the request passes straight through, no allocation, no
// wrapping.
func (s *Server) observe(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tid := obs.TraceID(r.Header.Get(obs.TraceHeader))
		logging := s.logger != nil && s.logger.Enabled(r.Context(), slog.LevelInfo)
		recording := s.recorder != nil
		if !logging && tid == "" && !recording {
			next.ServeHTTP(w, r)
			return
		}
		if tid == "" {
			tid = obs.NewTraceID()
			// Stamp the minted ID onto the request too, so inner layers
			// that read the header (the chaos injector's fault log) see
			// the same ID the request log line will carry.
			r.Header.Set(obs.TraceHeader, string(tid))
		}
		start := time.Now()
		tr := obs.NewTrace(tid)
		ctx := obs.WithTrace(r.Context(), tr)
		ctx, rootSpan := obs.StartSpan(ctx, "request")
		rootSpan.SetAttr("endpoint", name)
		ri := &reqInfo{}
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set(obs.TraceHeader, string(tid))

		// Engine/oracle counters are process-wide cumulatives; a snapshot
		// pair brackets the request so its recorder entry carries the
		// delta (approximate under concurrency, exact when idle).
		var ec0 engineSnapshot
		if recording {
			ec0 = takeEngineSnapshot()
		}

		// The log line is emitted from a defer so a handler panic that
		// escapes (http.ErrAbortHandler from a chaos reset on a
		// non-hijackable writer) still produces its one line; the panic
		// itself keeps unwinding to net/http.
		defer func() {
			rootSpan.Finish()
			total := time.Since(start)
			status := sw.status
			result := ri.result
			if result == "" {
				switch {
				case sw.hijacked || status == 0:
					result = "aborted" // connection severed before a response
				case status < 400:
					result = "ok"
				default:
					result = "error"
				}
			}
			if recording {
				s.recordRequest(name, tid, tr, ri, status, result, start, total, ec0)
			}
			if !logging {
				return
			}
			attrs := []slog.Attr{
				slog.String("trace_id", string(tid)),
				slog.String("endpoint", name),
				slog.Int("status", status),
				slog.String("result", result),
				slog.Float64("queue_wait_ms", durMS(ri.queueWait)),
				slog.Float64("run_ms", durMS(ri.run)),
				slog.Float64("total_ms", durMS(total)),
				slog.Bool("draining", s.draining.Load()),
			}
			if eng := tr.SumPrefix("engine."); eng > 0 {
				attrs = append(attrs, slog.Float64("engine_ms", durMS(eng)))
			}
			if ri.errMsg != "" {
				attrs = append(attrs, slog.String("err", ri.errMsg))
			}
			s.logger.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// durMS renders a duration as fractional milliseconds for log fields.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endpoint wraps a job-shaped handler with the daemon's whole admission
// path: method check, drain check, deadline, bounded-queue submission,
// panic mapping, and metrics. The inner handler runs on the endpoint's
// worker pool and returns the response value to marshal (or an error).
// allow lists the accepted HTTP methods (historically just POST; the
// designs routes add PUT and GET); a handler serving several methods
// dispatches on r.Method itself.
func (s *Server) endpoint(name string, allow []string, handle func(r *http.Request) (any, error)) http.Handler {
	em := s.metrics.endpoints[name]
	q := s.queues[name]
	allowHeader := strings.Join(allow, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := reqInfoFrom(r.Context())
		setResult := func(result, errMsg string) {
			if ri != nil {
				ri.result = result
				ri.errMsg = errMsg
			}
		}
		if !slices.Contains(allow, r.Method) {
			w.Header().Set("Allow", allowHeader)
			msg := allowHeader + " only"
			setResult("error", msg)
			writeError(w, http.StatusMethodNotAllowed, lwmapi.CodeMethodNotAllowed, msg)
			return
		}
		if s.draining.Load() {
			// A draining instance is down only briefly; a well-behaved
			// client should back off and land on its replacement, not
			// hammer this one — same hint the 429 path gives.
			em.drained.Inc()
			setResult("drained", "")
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, lwmapi.CodeDraining, "draining")
			return
		}
		// Tenant admission: authenticate, then spend one token from the
		// tenant's bucket — both before the shared queue, so one tenant's
		// burst is rejected at its own limit instead of consuming queue
		// slots everyone shares. The 429 here is tenant_rate_limited with
		// the bucket's own refill hint, distinct from queue_full: it means
		// "you, specifically, back off", not daemon-wide pressure.
		tn, aerr := s.authenticate(r)
		if aerr != nil {
			em.failed.Inc()
			setResult("unauthorized", aerr.msg)
			writeError(w, aerr.status, aerr.code, aerr.msg)
			return
		}
		if s.tenants != nil {
			if ok, retryAfter := s.tenants.Allow(tn.t, time.Now()); !ok {
				em.rejected.Inc()
				s.meter.RateLimited(tn.ns)
				setResult("rate_limited", "")
				w.Header().Set("Retry-After", ceilSeconds(retryAfter))
				writeError(w, http.StatusTooManyRequests, lwmapi.CodeTenantRateLimited,
					"tenant rate limit exhausted, back off")
				return
			}
		}
		s.meter.Request(tn.ns)
		if ri != nil {
			ri.tenant = tn.ns
		}
		r = r.WithContext(withTenantInfo(r.Context(), tn))
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		tr := obs.TraceFrom(ctx)

		start := time.Now()
		var queueWait, runDur time.Duration
		var resp any
		var jobErr error
		err := q.submit(ctx, func() {
			jobStart := time.Now()
			queueWait = jobStart.Sub(start)
			tr.Record(obs.CurrentSpan(ctx), "queue.wait", start, queueWait)
			if s.testJobStart != nil {
				s.testJobStart(name)
			}
			runCtx, runSpan := obs.StartSpan(ctx, "run")
			resp, jobErr = handle(r.WithContext(runCtx))
			runSpan.Finish()
			runDur = time.Since(jobStart)
		})
		elapsed := time.Since(start)
		if ri != nil {
			ri.queueWait = queueWait
			ri.run = runDur
			ri.elapsed = elapsed
		}
		if tr != nil {
			// Stage timings ride back to a tracing client (lwm -trace)
			// on a response header; set before any body write.
			w.Header().Set(obs.TimingHeader,
				fmt.Sprintf("queue_wait_ns=%d;run_ns=%d", queueWait.Nanoseconds(), runDur.Nanoseconds()))
		}

		switch {
		case errors.Is(err, ErrQueueFull):
			em.rejected.Inc()
			setResult("rejected", "")
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusTooManyRequests, lwmapi.CodeQueueFull, "queue full, retry later")
			return
		case errors.Is(err, ErrDraining):
			em.drained.Inc()
			setResult("drained", "")
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, lwmapi.CodeDraining, "draining")
			return
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			em.timedOut.Inc()
			setResult("timeout", "")
			writeError(w, http.StatusGatewayTimeout, lwmapi.CodeTimeout, "request deadline expired in queue")
			return
		case err != nil:
			var pe *panicError
			if errors.As(err, &pe) {
				em.panicked.Inc()
				setResult("panic", pe.Error())
				writeError(w, http.StatusInternalServerError, lwmapi.CodeInternal, "internal error")
				return
			}
			em.failed.Inc()
			setResult("error", err.Error())
			writeError(w, http.StatusInternalServerError, lwmapi.CodeInternal, err.Error())
			return
		}
		em.hist.Observe(elapsed)
		em.queueWait.Observe(queueWait)
		// An SLO breach asks the profiler for an on-demand capture; its
		// debounce bounds how often one actually runs.
		if s.cfg.SLO > 0 && elapsed > s.cfg.SLO && s.profiler != nil {
			s.profiler.Trigger("slo:" + name)
		}

		if jobErr != nil {
			em.failed.Inc()
			setResult("error", jobErr.Error())
			var ae *apiError
			if errors.As(jobErr, &ae) {
				if ae.retryAfter > 0 {
					w.Header().Set("Retry-After", ceilSeconds(ae.retryAfter))
				}
				writeError(w, ae.status, ae.code, ae.msg)
				return
			}
			writeError(w, http.StatusInternalServerError, lwmapi.CodeInternal, jobErr.Error())
			return
		}
		em.ok.Inc()
		setResult("ok", "")
		if ri != nil && ri.echoTraceID != "" {
			w.Header().Set(obs.TraceHeader, ri.echoTraceID)
		}
		if raw, ok := resp.(*rawResponse); ok {
			w.Header().Set("Content-Type", raw.contentType)
			w.WriteHeader(raw.status)
			_, _ = w.Write(raw.body)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

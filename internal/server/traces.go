package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/family"
	"localwm/internal/obs"
	"localwm/internal/obs/recorder"
	"localwm/lwmapi"
)

// The flight-recorder surface:
//
//	GET /v1/traces          list retained traces (endpoint/result/reason/
//	                        min_duration/limit filters)
//	GET /v1/traces/{id}     one retained trace: full span tree, stage
//	                        timings, tenant, design ref, engine counters
//	GET /v1/profiles        list resident pprof snapshots
//	GET /v1/profiles/{name} one snapshot, raw pprof bytes
//
// All four are cheap reads mounted outside the admission queues (like
// /v1/stats) but inside observe — so trace reads are themselves traced —
// and, on the service mux, inside authentication: each tenant sees only
// its own retained traces. The loopback debug mux serves the same
// routes unscoped for operators.

// engineSnapshot brackets a request with the process-wide engine and
// oracle cumulatives so its recorder entry can carry the delta. Under
// concurrent requests the delta includes neighbors' work — it is an
// attribution hint, not an exact accounting.
type engineSnapshot struct {
	poolRuns, poolJobs       uint64
	oracleHits, oracleMisses uint64
}

func takeEngineSnapshot() engineSnapshot {
	es := family.PoolStats()
	h, m := cdfg.OracleStats()
	return engineSnapshot{
		poolRuns: es.PoolRuns, poolJobs: es.PoolJobs,
		oracleHits: h, oracleMisses: m,
	}
}

// delta returns the nonzero counter movements from a to b, nil when the
// request drove no engine work at all.
func (a engineSnapshot) delta(b engineSnapshot) map[string]uint64 {
	out := make(map[string]uint64)
	add := func(k string, x, y uint64) {
		if y > x {
			out[k] = y - x
		}
	}
	add("pool_runs", a.poolRuns, b.poolRuns)
	add("pool_jobs", a.poolJobs, b.poolJobs)
	add("oracle_hits", a.oracleHits, b.oracleHits)
	add("oracle_misses", a.oracleMisses, b.oracleMisses)
	if len(out) == 0 {
		return nil
	}
	return out
}

// recordRequest offers a finished request to the flight recorder and,
// when the trace was retained and the request completed normally,
// stamps an exemplar linking the endpoint's duration histogram bucket
// to the retained trace ID. Called from observe's defer, after the
// root span finished.
func (s *Server) recordRequest(name string, tid obs.TraceID, tr *obs.Trace, ri *reqInfo,
	status int, result string, start time.Time, total time.Duration, ec0 engineSnapshot) {
	e := recorder.Entry{
		ID:             string(tid),
		Endpoint:       name,
		Result:         result,
		Status:         status,
		Tenant:         ri.tenant,
		DesignRef:      ri.designRef,
		Error:          ri.errMsg,
		StartUnixNano:  start.UnixNano(),
		DurationNanos:  int64(total),
		QueueWaitNanos: ri.queueWait.Nanoseconds(),
		RunNanos:       ri.run.Nanoseconds(),
		Spans:          tr.Tree(),
		EngineCounters: ec0.delta(takeEngineSnapshot()),
	}
	kept, _ := s.recorder.Record(e)
	// Exemplars only for retained ok results that went through the
	// admission path: ri.elapsed is exactly the value the endpoint
	// observed into its histogram, so the exemplar annotates the bucket
	// of its own observation and always resolves via GET /v1/traces/{id}.
	if kept && result == "ok" && ri.elapsed > 0 {
		if em := s.metrics.endpoints[name]; em != nil && em.hist != nil {
			em.hist.SetExemplar(ri.elapsed, string(tid), time.Now())
		}
	}
}

// mountObservatory mounts the trace and profile routes. scoped selects
// the service-mux behavior (authenticate; tenants see only their own
// traces); the debug mux mounts unscoped.
func (s *Server) mountObservatory(mux *http.ServeMux, scoped bool) {
	traces := s.observe("traces", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.handleTraces(w, r, scoped)
	}))
	mux.Handle("/v1/traces", traces)
	mux.Handle("/v1/traces/", traces)
	profiles := s.observe("profiles", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.handleProfiles(w, r, scoped)
	}))
	mux.Handle("/v1/profiles", profiles)
	mux.Handle("/v1/profiles/", profiles)
}

// observatoryAuth is the shared admission check of the observatory
// routes: GET only, and (scoped mux only) authenticated. Reports the
// caller's tenant and whether the response was already written.
func (s *Server) observatoryAuth(w http.ResponseWriter, r *http.Request, scoped bool) (tenantInfo, bool) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, lwmapi.CodeMethodNotAllowed, "GET only")
		return tenantInfo{}, false
	}
	if !scoped {
		return tenantInfo{}, true
	}
	tn, aerr := s.authenticate(r)
	if aerr != nil {
		writeError(w, aerr.status, aerr.code, aerr.msg)
		return tenantInfo{}, false
	}
	if ri := reqInfoFrom(r.Context()); ri != nil {
		ri.tenant = tn.ns
	}
	return tn, true
}

func traceNotFound(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, lwmapi.CodeTraceNotFound,
		"trace "+id+": not retained (sampled out, evicted, or recorder disabled)")
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, scoped bool) {
	tn, ok := s.observatoryAuth(w, r, scoped)
	if !ok {
		return
	}
	id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1/traces"), "/")
	if id != "" {
		if !recorder.ValidID(id) {
			writeError(w, http.StatusBadRequest, lwmapi.CodeBadRequest, "trace id: malformed")
			return
		}
		e, found := s.recorder.Get(id)
		// Tenant scoping mirrors the jobs surface: a foreign trace ID is
		// indistinguishable from one that was never retained.
		if !found || (scoped && s.tenants != nil && e.Tenant != tn.ns) {
			traceNotFound(w, id)
			return
		}
		writeJSON(w, http.StatusOK, e)
		return
	}

	q := r.URL.Query()
	f := recorder.Filter{
		Endpoint:   q.Get("endpoint"),
		Result:     q.Get("result"),
		KeepReason: q.Get("reason"),
	}
	if md := q.Get("min_duration"); md != "" {
		d, err := time.ParseDuration(md)
		if err != nil {
			writeError(w, http.StatusBadRequest, lwmapi.CodeBadRequest, "min_duration: "+err.Error())
			return
		}
		f.MinDuration = d
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, lwmapi.CodeBadRequest, "limit: want a positive integer")
			return
		}
		f.Limit = n
	}
	if scoped && s.tenants != nil {
		f.Tenant, f.HasTenant = tn.ns, true
	}
	entries := s.recorder.List(f)
	if entries == nil {
		entries = []lwmapi.TraceEntry{} // "traces": [] — never null
	}
	writeJSON(w, http.StatusOK, lwmapi.ListTracesResponse{Traces: entries, Count: len(entries)})
}

func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request, scoped bool) {
	if _, ok := s.observatoryAuth(w, r, scoped); !ok {
		return
	}
	name := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1/profiles"), "/")
	if name != "" {
		data, err := s.profiler.Read(name)
		if err != nil {
			writeError(w, http.StatusNotFound, lwmapi.CodeProfileNotFound,
				"profile "+name+": not resident (never captured, pruned, or profiler disabled)")
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	snaps, err := s.profiler.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, lwmapi.CodeInternal, err.Error())
		return
	}
	resp := lwmapi.ListProfilesResponse{Profiles: make([]lwmapi.ProfileInfo, 0, len(snaps))}
	for _, sn := range snaps {
		resp.Profiles = append(resp.Profiles, lwmapi.ProfileInfo{
			Name: sn.Name, Kind: sn.Kind, SizeBytes: sn.SizeBytes, ModTimeUnix: sn.ModTime.Unix(),
		})
	}
	resp.Count = len(resp.Profiles)
	writeJSON(w, http.StatusOK, resp)
}

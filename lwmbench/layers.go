package main

import (
	"sort"
	"strings"
	"time"

	"localwm/internal/obs"
)

// topLayers partition a request's time: the wire codec, the registry,
// the family seam (codecs and the adapters' own work), the engine, the
// PathOracle's recomputes and, for the rest, the handler glue.
var topLayers = []string{"lwmapi", "store", "family", "engine", "cdfg", "glue"}

// wholeOp names the probes that re-run, sequentially, the work of a
// request's Protocol call; nestedLayers the probes of the layers inside
// that work. A nested layer's share of a request is the Protocol call's
// time scaled by the layer's share of those probes.
var (
	wholeOp = []string{"schedwm.embed", "schedwm.check", "schedwm.detect", "cdfg.write",
		"tmwm.embed", "tmwm.detect", "tmatch.greedy_cover", "tmatch.format_cover", "tmatch.count_coverings",
		"gcolor.embed", "gcolor.dsatur", "gcolor.format", "gcolor.detect"}
	nestedLayers = map[string][]string{
		"order":  {"order.order"},
		"domain": {"domain.select"}, // less order.order: domain.Select orders its tree
		"tmwm":   {"tmwm.embed", "tmwm.detect"},
		"tmatch": {"tmatch.greedy_cover", "tmatch.format_cover", "tmatch.count_coverings"},
		"gcolor": {"gcolor.embed", "gcolor.dsatur", "gcolor.format", "gcolor.detect"},
	}
)

// msNames are the per-call mean span durations reported in ms, by span
// name: the engine's own spans and the replayer's spans around each
// entry-point call of a request, and the probes' spans.
var msNames = map[string]string{
	"engine.embed_ms":           "engine.embed",
	"engine.detect_batch_ms":    "engine.detect_batch",
	"engine.verify_ms":          "engine.verify",
	"schedwm.embed_ms":          "schedwm.embed",
	"schedwm.prepare_ms":        "schedwm.prepare",
	"schedwm.detect_ms":         "schedwm.detect",
	"schedwm.check_ms":          "schedwm.check",
	"cdfg.parse_ms":             "cdfg.parse",
	"cdfg.write_ms":             "cdfg.write",
	"sched.windows_ms":          "sched.windows",
	"sched.parse_schedule_ms":   "sched.parse_schedule",
	"store.put_ms":              "store.put",
	"family.parse_design_ms":    "family.parse_design",
	"family.parse_solution_ms":  "family.parse_solution",
	"family.canonical_ms":       "family.canonical",
	"tmwm.embed_ms":             "tmwm.embed",
	"tmwm.detect_ms":            "tmwm.detect",
	"tmatch.enumerate_ms":       "tmatch.enumerate",
	"tmatch.greedy_cover_ms":    "tmatch.greedy_cover",
	"tmatch.parse_cover_ms":     "tmatch.parse_cover",
	"tmatch.count_coverings_ms": "tmatch.count_coverings",
	"gcolor.embed_ms":           "gcolor.embed",
	"gcolor.dsatur_ms":          "gcolor.dsatur",
	"gcolor.detect_ms":          "gcolor.detect",
	"gcolor.format_ms":          "gcolor.format",
	"gcolor.parse_ms":           "gcolor.parse",
	"lwmapi.decode_ms":          "lwmapi.decode",
	"lwmapi.encode_ms":          "lwmapi.encode",
}

// walk visits every span of a forest with its parent (nil for a root).
func walk(vs []obs.SpanView, parent *obs.SpanView, f func(s, parent *obs.SpanView)) {
	for i := range vs {
		f(&vs[i], parent)
		walk(vs[i].Children, &vs[i], f)
	}
}

func layerOf(name string) string { return strings.SplitN(name, ".", 2)[0] }

// partition splits one request's time over topLayers from its span
// tree, and returns the time of its Protocol call. PathOracle recomputes
// hang off the Protocol call's span but run inside the engine's spans,
// or (the budget's critical path) in the adapter's own work.
func partition(req obs.SpanView, into map[string]int64) (work int64) {
	var direct int64
	for _, c := range req.Children {
		direct += c.DurationNanos
		switch c.Name {
		case "family.embed", "family.detect", "family.verify":
		default:
			into[layerOf(c.Name)] += c.DurationNanos
			continue
		}
		work += c.DurationNanos
		var eng, orc, orcIn int64
		for _, k := range c.Children {
			if layerOf(k.Name) == "engine" {
				eng += k.DurationNanos
			}
		}
		for _, k := range c.Children {
			if layerOf(k.Name) != "oracle" {
				continue
			}
			orc += k.DurationNanos
			for _, e := range c.Children {
				if layerOf(e.Name) == "engine" && k.StartUnixNano >= e.StartUnixNano &&
					k.StartUnixNano+k.DurationNanos <= e.StartUnixNano+e.DurationNanos {
					orcIn += k.DurationNanos
					break
				}
			}
		}
		into["engine"] += eng - orcIn
		into["cdfg"] += orc
		into["family"] += c.DurationNanos - eng - (orc - orcIn)
	}
	into["glue"] += req.DurationNanos - direct
	return work
}

// layerMetrics derives every per-layer metric: span timings, shares and
// probe counts from the traced replay, the CPU profile's share of stacks
// through order and domain, the server/client split from the live run's
// X-Lwm-Server-Timing headers, and counters from the daemon's /metrics
// deltas around the live run. A layer that did no work reports 0; every
// ratio is given with its base count.
func layerMetrics(run *traceRun, lr *loadRun, m0, m1 map[string]float64) metrics {
	m := metrics{}
	type agg struct {
		n  int
		ns int64
	}
	byName := map[string]*agg{}
	count := func(s, parent *obs.SpanView) {
		// An engine span inside another (verify's re-derivation, the
		// speculation pass) belongs to the outer one.
		if parent != nil && layerOf(s.Name) == "engine" && layerOf(parent.Name) == "engine" {
			return
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.ns += s.DurationNanos
	}
	top := map[string]int64{}
	nested := map[string]float64{}
	var total int64
	spans := 0
	for _, rt := range run.reqs {
		walk(rt.Spans, nil, count)
		walk(rt.Probe, nil, count)
		walk(rt.Spans, nil, func(*obs.SpanView, *obs.SpanView) { spans++ })
		if len(rt.Spans) == 0 {
			continue
		}
		total += rt.Spans[0].DurationNanos
		work := partition(rt.Spans[0], top)
		probes := map[string]int64{}
		walk(rt.Probe, nil, func(s, _ *obs.SpanView) { probes[s.Name] += s.DurationNanos })
		var seq int64
		for _, n := range wholeOp {
			seq += probes[n]
		}
		if seq == 0 || work == 0 {
			continue
		}
		for layer, names := range nestedLayers {
			var ns int64
			for _, n := range names {
				ns += probes[n]
			}
			if layer == "domain" {
				ns -= probes["order.order"]
			}
			nested[layer] += float64(work) * float64(ns) / float64(seq)
		}
	}
	mean := func(name string, unit time.Duration) (float64, int) {
		a := byName[name]
		if a == nil || a.n == 0 {
			return 0, 0
		}
		return float64(a.ns) / float64(a.n) / float64(unit), a.n
	}
	for metricName, spanName := range msNames {
		v, n := mean(spanName, time.Millisecond)
		m.set(metricName, v, "ms", n)
	}
	v, n := mean("store.get", time.Microsecond)
	m.set("store.get_us", v, "us", n)

	requests := len(run.reqs)
	reqs := float64(requests)
	o := run.ord
	m.set("order.calls_per_req", ratio(float64(o.calls), reqs), "count", int(o.calls))
	m.set("order.us_per_call", ratio(float64(o.ns)/1e3, float64(o.calls)), "us", int(o.calls))
	m.set("order.allocs_per_call", ratio(float64(o.allocs), float64(o.calls)), "count", int(o.calls))
	m.set("order.kb_per_call", ratio(float64(o.bytes)/1024, float64(o.calls)), "kB", int(o.calls))
	m.set("order.nodes_per_call", ratio(float64(o.nodes), float64(o.calls)), "count", int(o.calls))
	m.set("order.depth_mean", ratio(float64(o.dep), float64(o.calls)), "count", int(o.calls))
	m.set("order.canonical_ratio", ratio(float64(o.canonical), float64(o.calls)), "ratio", int(o.calls))
	m.set("domain.selects_per_req", ratio(float64(o.selects), reqs), "count", int(o.selects))
	m.set("domain.select_self_ms", ratio(float64(o.selectNs-o.ns)/1e6, float64(o.selects)), "ms", int(o.selects))
	m.set("schedwm.roots_tried", ratio(float64(run.rootsTried), float64(run.scans)), "count", run.scans)
	for _, l := range []string{"order", "domain"} {
		share, samples := run.prof.share("localwm/internal/" + l)
		m.set(l+".cpu_share", share, "ratio", samples)
	}

	// Shares of replayed request time: topLayers partition it; the nested
	// layers are estimates inside the family and engine shares.
	for _, l := range topLayers {
		m.set("share."+l, ratio(float64(top[l]), float64(total)), "ratio", requests)
	}
	for l := range nestedLayers {
		m.set("share."+l, ratio(nested[l], float64(total)), "ratio", requests)
	}

	m.set("runtime.alloc_mb_per_req", ratio(float64(run.allocBytes)/(1<<20), reqs), "MB", requests)
	m.set("runtime.gc_cpu_fraction", run.gcCPU, "ratio", requests)

	perReq := ratio(float64(spans), reqs)
	m.set("trace.req_per_s", ratio(reqs, float64(total)/1e9), "1/s", requests)
	m.set("trace.spans_per_req", perReq, "count", spans)
	m.set("trace.span_ns", run.spanNs, "ns", 1)
	m.set("trace.overhead_ratio", ratio(perReq*run.spanNs, float64(total)/reqs), "ratio", requests)

	liveMetrics(m, lr, m0, m1)
	return m
}

// liveMetrics fills the server, client, wire, store, jobs, engine and
// oracle metrics from the live closed-loop run.
func liveMetrics(m metrics, lr *loadRun, m0, m1 map[string]float64) {
	d := func(name string) float64 { return m1[name] - m0[name] }
	type kindAgg struct {
		run, qw, over, reqKB, respKB []float64
	}
	agg := map[string]*kindAgg{}
	syncEmbed := map[string][]float64{}
	var jobs []*result
	completed := 0
	for _, r := range lr.results {
		if r.err != nil || !r.inWindow {
			continue
		}
		completed++
		a := agg[r.op.Kind]
		if a == nil {
			a = &kindAgg{}
			agg[r.op.Kind] = a
		}
		lat := float64(r.latency) / float64(time.Millisecond)
		var server float64
		var req, resp int64
		var split *trip
		for i := range r.trips {
			t := &r.trips[i]
			req += t.reqBytes
			resp += t.respBytes
			if t.timed {
				server += float64(t.queueWait+t.run) / float64(time.Millisecond)
				if split == nil || r.op.Kind != kindJob {
					split = t // a job's split is its submit; others' the final attempt
				}
			} else {
				// Untimed trips are a job's status long-polls and result
				// fetch: server-side waiting, not client overhead.
				server += float64(t.wall) / float64(time.Millisecond)
			}
		}
		if split != nil {
			a.run = append(a.run, float64(split.run)/float64(time.Millisecond))
			a.qw = append(a.qw, float64(split.queueWait)/float64(time.Millisecond))
		}
		a.over = append(a.over, lat-server)
		a.reqKB = append(a.reqKB, float64(req)/1024)
		a.respKB = append(a.respKB, float64(resp)/1024)
		switch r.op.Kind {
		case kindEmbed:
			syncEmbed[r.op.Key] = append(syncEmbed[r.op.Key], lat)
		case kindJob:
			jobs = append(jobs, r)
		}
	}
	for _, k := range kinds {
		a := agg[k]
		if a == nil {
			a = &kindAgg{}
		}
		m.set("server."+k+".run_p50_ms", quantile(a.run, 0.5), "ms", len(a.run))
		m.set("server."+k+".queue_wait_p90_ms", quantile(a.qw, 0.9), "ms", len(a.qw))
		m.set("lwmclient."+k+".overhead_p50_ms", quantile(a.over, 0.5), "ms", len(a.over))
		m.set("lwmapi."+k+".req_kb", mean(a.reqKB), "kB", len(a.reqKB))
		m.set("lwmapi."+k+".resp_kb", mean(a.respKB), "kB", len(a.respKB))
	}
	m.set("lwmclient.attempts", float64(lr.attempts), "count", int(lr.attempts))
	m.set("lwmclient.retries", float64(lr.retries), "count", int(lr.retries))
	m.set("lwmclient.retry_ratio", ratio(float64(lr.retries), float64(lr.attempts)), "ratio", int(lr.attempts))

	// A job's overhead is its submit-to-result time minus the median sync
	// embed of the same request in the same run.
	var over []float64
	for _, r := range jobs {
		if xs := syncEmbed[refKey(r.op)]; len(xs) > 0 {
			over = append(over, float64(r.latency)/float64(time.Millisecond)-quantile(xs, 0.5))
		}
	}
	m.set("jobs.overhead_p50_ms", quantile(over, 0.5), "ms", len(over))
	m.set("jobs.wal_kb", d("lwmd_jobs_wal_bytes")/1024, "kB", len(jobs))

	hits, misses := d("lwmd_store_hits_total"), d("lwmd_store_misses_total")
	m.set("store.lookups", hits+misses, "count", int(hits+misses))
	m.set("store.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	m.set("store.wal_kb", d("lwmd_store_wal_bytes")/1024, "kB", int(d("lwmd_store_puts_total")))

	commits, repairs := d("lwmd_engine_spec_commits_total"), d("lwmd_engine_spec_repairs_total")
	m.set("engine.spec_attempts", commits+repairs, "count", int(commits+repairs))
	m.set("engine.spec_commit_ratio", ratio(commits, commits+repairs), "ratio", int(commits+repairs))
	m.set("engine.seq_degrades", d("lwmd_engine_seq_degrades_total"), "count", int(d("lwmd_engine_seq_degrades_total")))

	oh, om := d("lwmd_oracle_hits_total"), d("lwmd_oracle_misses_total")
	m.set("cdfg.oracle_lookups", oh+om, "count", int(oh+om))
	m.set("cdfg.oracle_hit_ratio", ratio(oh, oh+om), "ratio", int(oh+om))

	m.set("runtime.gc_pause_ms_per_req", ratio(d("lwmd_go_gc_pause_seconds")*1e3, float64(completed)), "ms", completed)
	m.set("trace.live_req_per_s", float64(completed)/lr.busy.Seconds(), "1/s", completed)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// bypassViolations checks that each control workload skips the layers
// it is the control for: on color no CPU profile sample of the replayed
// requests lands in ordering or domain selection, and the daemon counts
// no speculation; audit and cover never speculate.
func bypassViolations(workload string, m metrics) []string {
	var zero []string
	switch workload {
	case "color":
		zero = []string{"order.cpu_share", "domain.cpu_share", "engine.spec_attempts"}
	case "audit", "cover":
		zero = []string{"engine.spec_attempts"}
	}
	var out []string
	for _, name := range zero {
		if v := m[name].Value; v != 0 {
			out = append(out, name+" is not 0")
		}
	}
	sort.Strings(out)
	return out
}

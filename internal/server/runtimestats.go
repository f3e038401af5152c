package server

import (
	"math"
	rtmetrics "runtime/metrics" // plain "metrics" is the server's series struct
)

// Runtime health bridge: the three process-vitals series every lwmd
// deployment should alert on — goroutine count, live heap bytes, and
// cumulative GC stop-the-world pause time — read from the runtime/metrics
// package on each scrape. The names below are the stable identifiers
// documented by that package; readRuntimeStat probes availability once
// per call and returns 0 for a name this toolchain does not export, so
// the series degrade to zero instead of panicking across Go versions.
const (
	runtimeGoroutines = "/sched/goroutines:goroutines"
	runtimeHeapBytes  = "/memory/classes/heap/objects:bytes"
	runtimeGCPauses   = "/sched/pauses/total/gc:seconds"
)

// readRuntimeStat samples one runtime/metrics name as a float64.
// Uint64 samples are widened; histogram samples (the GC pause series)
// are collapsed to their total weighted sum, which for a seconds
// histogram is the cumulative pause time — exactly the counter shape
// Prometheus expects.
func readRuntimeStat(name string) float64 {
	sample := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(sample)
	switch sample[0].Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(sample[0].Value.Uint64())
	case rtmetrics.KindFloat64:
		return sample[0].Value.Float64()
	case rtmetrics.KindFloat64Histogram:
		h := sample[0].Value.Float64Histogram()
		if h == nil {
			return 0
		}
		var total float64
		for i, count := range h.Counts {
			// Bucket i spans [Buckets[i], Buckets[i+1]); charge its counts
			// at the midpoint, clamping the open-ended edge buckets to
			// their finite bound.
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			if math.IsInf(lo, 0) {
				mid = hi
			} else if math.IsInf(hi, 0) {
				mid = lo
			}
			total += float64(count) * mid
		}
		return total
	default:
		return 0
	}
}

package cdfg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Process-wide oracle cache statistics. Every PathOracle lookup counts
// here in addition to doing its work, so a long-running service can
// surface the cache's effectiveness without holding references to the
// individual graphs (which come and go per request).
var oracleHits, oracleMisses atomic.Uint64

// OracleStats reports the cumulative PathOracle cache hits and misses
// across every oracle in the process since start. A "miss" is a lookup
// that had to run a longest-path computation; invalidations surface as
// misses on the next query, never as a separate event. Monotonic;
// callers derive rates by differencing snapshots.
func OracleStats() (hits, misses uint64) {
	return oracleHits.Load(), oracleMisses.Load()
}

// PathOracle is a memoized longest-path cache over one Graph. Every query
// is keyed by the graph's generation counters plus a behavioral
// fingerprint of the weight function, so results stay valid exactly as
// long as the analyses they derive from:
//
//   - queries that exclude temporal edges are keyed by structGen alone and
//     therefore survive watermark embedding (which only adds temporal
//     edges);
//   - queries that include temporal edges are additionally keyed by
//     tempGen and refresh whenever a temporal edge is added or cleared.
//
// Invalidation is copy-on-invalidate: a stale entry is never mutated or
// recycled — a fresh entry is computed and the stale one dropped — so
// slices handed out earlier remain valid snapshots for their holders.
// The returned slices are shared between all callers of the same query
// and MUST be treated as read-only.
//
// The oracle itself is safe for concurrent use. Like the rest of Graph,
// it must not race with graph mutation: queries may run concurrently with
// each other (the batch detection engine does exactly that), not with
// AddEdge/AddNode/SetOp/ClearTemporalEdges.
type PathOracle struct {
	g     *Graph
	mu    sync.Mutex
	cache map[oracleKey]*oracleEntry
}

// oracleKey identifies one cached analysis.
type oracleKey struct {
	structGen uint64
	tempGen   uint64 // 0 when the query ignores temporal edges
	temporal  bool   // temporal edges participate in the precedence relation
	tempW     int    // extra weight charged per temporal edge (TemporalWeighted)
	weights   string // behavioral fingerprint of the weight function
}

// oracleEntry is an immutable computed analysis.
type oracleEntry struct {
	to, from []int
	lax      []int
	critical int
}

// Oracle returns the graph's longest-path cache, creating it on first use.
// The oracle is not copied by Clone: a cloned graph starts cold.
func (g *Graph) Oracle() *PathOracle {
	if o := g.oracle.Load(); o != nil {
		return o
	}
	o := &PathOracle{g: g, cache: make(map[oracleKey]*oracleEntry)}
	if g.oracle.CompareAndSwap(nil, o) {
		return o
	}
	return g.oracle.Load()
}

// weightFingerprint reduces a weight function to its observable behavior:
// the weight of every computational operation kind. Two functions with the
// same table share cache entries — function identity is irrelevant, which
// keeps closures returned by e.g. vliw.Machine.OpWeight cache-friendly.
func weightFingerprint(w WeightFunc) string {
	if w == nil {
		return ""
	}
	fp := make([]byte, 0, 64)
	for _, op := range AllOps() {
		if !op.IsComputational() {
			continue
		}
		fp = append(fp, []byte(fmt.Sprintf("%d:%d;", int(op), w(op)))...)
	}
	return string(fp)
}

// key builds the cache key for a query under the graph's current
// generations.
func (o *PathOracle) key(temporal bool, tempW int, weight WeightFunc) oracleKey {
	k := oracleKey{structGen: o.g.structGen, temporal: temporal, tempW: tempW,
		weights: weightFingerprint(weight)}
	if temporal {
		k.tempGen = o.g.tempGen
	}
	return k
}

// lookup returns the entry for key, computing it with build on a miss.
// Stale entries (older generations) are pruned on every miss; entries are
// never mutated after insertion. kind names the analysis for the graph's
// recompute observer (OnPathRecompute); the miss path is only timed when
// an observer is registered, so the common case pays nothing.
func (o *PathOracle) lookup(k oracleKey, kind string, build func() (*oracleEntry, error)) (*oracleEntry, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e, ok := o.cache[k]; ok {
		oracleHits.Add(1)
		return e, nil
	}
	oracleMisses.Add(1)
	var start time.Time
	if o.g.pathObserver != nil {
		start = time.Now()
	}
	e, err := build()
	if obsFn := o.g.pathObserver; obsFn != nil {
		obsFn(kind, start, time.Since(start))
	}
	if err != nil {
		return nil, err
	}
	for old := range o.cache {
		if old.structGen != k.structGen || (old.temporal && old.tempGen != o.g.tempGen) {
			delete(o.cache, old)
		}
	}
	o.cache[k] = e
	return e, nil
}

// entryFor computes or retrieves the standard analysis under opts.
func (o *PathOracle) entryFor(opts PathOpts) (*oracleEntry, error) {
	k := o.key(opts.IncludeTemporal, 0, opts.Weight)
	return o.lookup(k, "longest", func() (*oracleEntry, error) {
		to, from, err := o.g.longest(opts)
		if err != nil {
			return nil, err
		}
		return o.finish(opts.Weight, to, from), nil
	})
}

// finish derives the laxity vector and critical-path length from a to/from
// pair.
func (o *PathOracle) finish(weight WeightFunc, to, from []int) *oracleEntry {
	e := &oracleEntry{to: to, from: from, lax: make([]int, len(to))}
	opts := PathOpts{Weight: weight}
	for v := range e.lax {
		e.lax[v] = to[v] + from[v] - o.g.nodeWeight(opts, NodeID(v))
		if to[v] > e.critical {
			e.critical = to[v]
		}
	}
	return e
}

// Longest returns the cached longest-to and longest-from vectors under
// opts (see Graph.LongestTo/LongestFrom). The slices are shared: callers
// must not modify them.
func (o *PathOracle) Longest(opts PathOpts) (to, from []int, err error) {
	e, err := o.entryFor(opts)
	if err != nil {
		return nil, nil, err
	}
	return e.to, e.from, nil
}

// CriticalPathW returns the cached weighted critical-path length over
// data+control edges.
func (o *PathOracle) CriticalPathW(weight WeightFunc) (int, error) {
	e, err := o.entryFor(PathOpts{Weight: weight})
	if err != nil {
		return 0, err
	}
	return e.critical, nil
}

// LaxitiesW returns the cached weighted laxity vector over data+control
// edges (see Graph.LaxitiesW). The slice is shared: callers must not
// modify it.
func (o *PathOracle) LaxitiesW(weight WeightFunc) ([]int, error) {
	e, err := o.entryFor(PathOpts{Weight: weight})
	if err != nil {
		return nil, err
	}
	return e.lax, nil
}

// TemporalWeighted returns cached longest paths over ALL edge kinds where
// traversing a temporal edge additionally costs tempW — the model the
// scheduling-watermark embedder uses for its no-stretch test, where every
// temporal constraint is realized by a unit operation of weight tempW
// between its endpoints. The slices are shared: callers must not modify
// them.
func (o *PathOracle) TemporalWeighted(weight WeightFunc, tempW int) (to, from []int, err error) {
	k := o.key(true, tempW, weight)
	e, err := o.lookup(k, "temporal_weighted", func() (*oracleEntry, error) {
		// A scratch of its own: the entry keeps the result slices.
		to, from, err := o.g.WeightedLongest(&PathScratch{}, weight, tempW, nil)
		if err != nil {
			return nil, err
		}
		return &oracleEntry{to: to, from: from}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return e.to, e.from, nil
}

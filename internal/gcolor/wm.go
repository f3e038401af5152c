package gcolor

import (
	"fmt"
	"sort"

	"localwm/internal/prng"
	"localwm/internal/stats"
)

// Config parameterizes graph-coloring watermark embedding.
type Config struct {
	// Tau is the locality size (vertices of the selected subgraph).
	Tau int
	// K is the number of constraint edges to add.
	K int
	// MaxTries bounds root re-selection (default 64).
	MaxTries int
}

func (c Config) withDefaults() (Config, error) {
	if c.Tau < 2 {
		return c, fmt.Errorf("gcolor: τ must be at least 2")
	}
	if c.K <= 0 {
		return c, fmt.Errorf("gcolor: K must be positive")
	}
	if c.MaxTries == 0 {
		c.MaxTries = 64
	}
	return c, nil
}

// Watermark records an embedding: K extra edges confined to a locality.
type Watermark struct {
	Signature prng.Signature
	Config    Config
	Root      int
	Locality  []int    // locality vertices in selection order
	Pairs     [][2]int // constrained vertex pairs (graph IDs)
	RankPairs [][2]int // the same pairs in locality-rank space (the record)
}

// Record is the detector-facing description.
type Record struct {
	Signature prng.Signature
	Tau       int
	RankPairs [][2]int
}

// Record extracts the detection record.
func (wm *Watermark) Record() Record {
	return Record{
		Signature: append(prng.Signature(nil), wm.Signature...),
		Tau:       wm.Config.Tau,
		RankPairs: append([][2]int(nil), wm.RankPairs...),
	}
}

func localityStream(sig prng.Signature) (*prng.Bitstream, error) {
	key := append(append(prng.Signature{}, sig...), []byte("/gcolor-domain")...)
	return prng.NewBitstream(key)
}

// growLocality grows a connected subgraph of tau vertices from root with
// a bitstream-driven breadth-first walk (include each frontier neighbor
// with probability 1/2, at least one per expansion), then orders it
// canonically by iterated degree refinement. It returns the vertices in
// canonical rank order, or nil if the component is too small.
func growLocality(g *Graph, bs *prng.Bitstream, root, tau int) []int {
	in := map[int]bool{root: true}
	frontier := []int{root}
	for len(in) < tau && len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		var cands []int
		for _, u := range g.Neighbors(v) {
			if !in[u] {
				cands = append(cands, u)
			}
		}
		if len(cands) == 0 {
			continue
		}
		mandatory := bs.Intn(len(cands))
		for i, u := range cands {
			if i != mandatory && !bs.Coin(1, 2) {
				continue
			}
			if in[u] {
				continue
			}
			in[u] = true
			frontier = append(frontier, u)
			if len(in) >= tau {
				break
			}
		}
	}
	if len(in) < tau {
		return nil
	}
	return canonicalOrder(g, in)
}

// canonicalOrder ranks the locality's vertices by iterated structural
// refinement: start with (degree in locality, global degree) and refine
// with the sorted multiset of neighbor classes until stable — a bounded
// Weisfeiler–Lehman pass. Ties fall back to vertex ID (stable under the
// attacks simulated here, which preserve relative ID order).
func canonicalOrder(g *Graph, in map[int]bool) []int {
	verts := make([]int, 0, len(in))
	for v := range in {
		verts = append(verts, v)
	}
	sort.Ints(verts)
	class := map[int]string{}
	for _, v := range verts {
		dIn := 0
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dIn++
			}
		}
		class[v] = fmt.Sprintf("%03d/%03d", dIn, g.Degree(v))
	}
	// Iterated refinement with per-round label compression (the classic
	// Weisfeiler–Lehman implementation): signatures are rebuilt from the
	// previous round's compact labels, so their size stays bounded.
	for round := 0; round < len(verts); round++ {
		sig := map[int]string{}
		for _, v := range verts {
			var nbr []string
			for _, u := range g.Neighbors(v) {
				if in[u] {
					nbr = append(nbr, class[u])
				}
			}
			sort.Strings(nbr)
			sig[v] = class[v] + "|" + fmt.Sprint(nbr)
		}
		// Compress: canonical label per distinct signature, numbered in
		// sorted-signature order so labels are graph-intrinsic.
		distinctSigs := map[string]bool{}
		for _, s := range sig {
			distinctSigs[s] = true
		}
		sorted := make([]string, 0, len(distinctSigs))
		for s := range distinctSigs {
			sorted = append(sorted, s)
		}
		sort.Strings(sorted)
		label := map[string]string{}
		for i, s := range sorted {
			label[s] = fmt.Sprintf("c%03d", i)
		}
		next := map[int]string{}
		changedClasses := len(distinctSigs) != countDistinct(class, verts)
		for _, v := range verts {
			next[v] = label[sig[v]]
		}
		class = next
		if !changedClasses || len(distinctSigs) == len(verts) {
			break
		}
	}
	sort.SliceStable(verts, func(i, j int) bool {
		if class[verts[i]] != class[verts[j]] {
			return class[verts[i]] > class[verts[j]]
		}
		return verts[i] < verts[j]
	})
	return verts
}

func countDistinct(class map[int]string, verts []int) int {
	seen := map[string]bool{}
	for _, v := range verts {
		seen[class[v]] = true
	}
	return len(seen)
}

// Embed adds K constraint edges to g (in place) in a signature-selected
// locality and returns the watermark. Constraint edges are real edges of
// the augmented instance: any proper coloring of it separates the pairs.
func Embed(g *Graph, sig prng.Signature, cfg Config) (*Watermark, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	master, err := prng.NewBitstream(sig)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for try := 0; try < cfg.MaxTries; try++ {
		root := master.Intn(g.N())
		ls, err := localityStream(sig)
		if err != nil {
			return nil, err
		}
		loc := growLocality(g, ls, root, cfg.Tau)
		if loc == nil {
			lastErr = fmt.Errorf("gcolor: root %d's component smaller than τ", root)
			continue
		}
		// Candidate pairs: non-adjacent locality pairs, in rank order.
		var pairs [][2]int
		for i := 0; i < len(loc); i++ {
			for j := i + 1; j < len(loc); j++ {
				if !g.HasEdge(loc[i], loc[j]) {
					pairs = append(pairs, [2]int{i, j})
				}
			}
		}
		if len(pairs) < cfg.K {
			lastErr = fmt.Errorf("gcolor: locality at root %d has only %d free pairs", root, len(pairs))
			continue
		}
		wm := &Watermark{
			Signature: append(prng.Signature(nil), sig...),
			Config:    cfg,
			Root:      root,
			Locality:  loc,
		}
		for _, idx := range ls.Select(cfg.K, len(pairs)) {
			p := pairs[idx]
			u, v := loc[p[0]], loc[p[1]]
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
			wm.Pairs = append(wm.Pairs, [2]int{u, v})
			wm.RankPairs = append(wm.RankPairs, p)
		}
		return wm, nil
	}
	return nil, fmt.Errorf("gcolor: no locality after %d tries: %v", cfg.MaxTries, lastErr)
}

// Detection is the outcome of scanning a suspect coloring.
type Detection struct {
	Found      bool
	Root       int
	Separated  int // constrained pairs with distinct colors
	Total      int
	Pc         stats.LogProb
	RootsTried int
}

// Detect scans every vertex of the suspect graph as a candidate root,
// re-derives the locality walk from the signature, maps the recorded rank
// pairs to vertices, and checks that the suspect coloring separates every
// pair. Pc estimates the chance an independent coloring does so, using
// the coloring's own color-class distribution.
func Detect(g *Graph, col Coloring, rec Record) (*Detection, error) {
	if len(rec.RankPairs) == 0 {
		return nil, fmt.Errorf("gcolor: record carries no pairs")
	}
	if err := col.Valid(g); err != nil {
		return nil, err
	}
	// Chance that two independent vertices share a color, from the class
	// mass of this very coloring.
	classSize := map[int]int{}
	for _, c := range col {
		classSize[c]++
	}
	sameProb := 0.0
	for _, s := range classSize {
		f := float64(s) / float64(len(col))
		sameProb += f * f
	}

	best := &Detection{Root: -1, Total: len(rec.RankPairs)}
	for root := 0; root < g.N(); root++ {
		ls, err := localityStream(rec.Signature)
		if err != nil {
			return nil, err
		}
		loc := growLocality(g, ls, root, rec.Tau)
		if loc == nil {
			continue
		}
		best.RootsTried++
		det := &Detection{Root: root, Total: len(rec.RankPairs)}
		ok := true
		for _, p := range rec.RankPairs {
			// A record is client input: a rank outside the locality,
			// negative ones included, leaves the pair unmappable here.
			if p[0] < 0 || p[0] >= len(loc) || p[1] < 0 || p[1] >= len(loc) {
				ok = false
				break
			}
			u, v := loc[p[0]], loc[p[1]]
			if col[u] != col[v] {
				det.Separated++
				det.Pc = det.Pc.Mul(stats.FromProb(1 - sameProb))
			}
		}
		if !ok {
			continue
		}
		if det.Separated > best.Separated || (det.Separated == best.Separated && det.Pc < best.Pc) {
			tried := best.RootsTried
			best = det
			best.RootsTried = tried
		}
		if best.Separated == best.Total {
			break
		}
	}
	best.Found = best.Separated == best.Total && best.Total > 0
	return best, nil
}

// RandomGraph builds a deterministic Erdős–Rényi-style graph on n
// vertices with edge probability num/den, keyed by seed, plus a Hamilton
// backbone so the graph is connected (localities can always grow).
func RandomGraph(seed string, n, num, den int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gcolor: need at least 2 vertices")
	}
	bs, err := prng.NewBitstream(prng.Signature("gcolor-gen/" + seed))
	if err != nil {
		return nil, err
	}
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		if err := g.AddEdge(v-1, v); err != nil {
			return nil, err
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 2; v < n; v++ {
			if bs.Coin(num, den) {
				if err := g.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Package domain implements the first two steps shared by both
// local-watermarking protocols (paper §IV-A):
//
//   - domain selection — pick a root node n_o and identify its fan-in tree
//     T_o of bounded distance;
//   - domain identification — assign every node of T_o a unique structural
//     identifier (package order), then walk T_o top-down breadth-first,
//     letting the author-keyed bitstream decide which inputs enter the
//     final subtree T.
//
// Because every choice consumes the signature-keyed bitstream and every
// node is named by its structural rank, the same (signature, design) pair
// always reproduces the same T — which is exactly what the detector does.
package domain

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"localwm/internal/cdfg"
	"localwm/internal/order"
	"localwm/internal/prng"
)

// Config parameterizes subtree selection.
type Config struct {
	// Tau is the desired cardinality τ = |T| of the selected subtree. The
	// walk stops once τ nodes are selected; if the fan-in tree is smaller,
	// T is smaller too (callers that need a minimum size retry at another
	// root, as the paper's protocol does).
	Tau int
	// MaxDist bounds the fan-in distance of the candidate tree T_o. Zero
	// means τ, the paper's choice ("a fanin tree of n_o with max-distance
	// τ from n_o").
	MaxDist int
	// IncludeNum/IncludeDen give the probability with which each
	// non-mandatory input is included in the breadth-first walk ("the
	// exclusion of inputs can be done with a given probability"). Zero
	// values default to 1/2.
	IncludeNum, IncludeDen int
	// MaxTreeSize caps the candidate tree T_o at a node count, bounding
	// the cost of canonical ordering on designs whose fan-in cones blow up
	// (the BFS stops once the cap is reached, keeping whole distance
	// levels when possible). Zero defaults to max(64, 6·Tau). Embedder and
	// detector must use the same value; it is part of the public
	// watermark configuration.
	MaxTreeSize int
}

func (c Config) withDefaults() (Config, error) {
	if c.Tau <= 0 {
		return c, fmt.Errorf("domain: τ must be positive, got %d", c.Tau)
	}
	if c.MaxDist == 0 {
		c.MaxDist = c.Tau
	}
	if c.MaxDist < 0 {
		return c, fmt.Errorf("domain: negative max distance %d", c.MaxDist)
	}
	if c.IncludeDen == 0 {
		c.IncludeNum, c.IncludeDen = 1, 2
	}
	if c.IncludeDen < 0 || c.IncludeNum < 0 || c.IncludeNum > c.IncludeDen {
		return c, fmt.Errorf("domain: malformed inclusion probability %d/%d", c.IncludeNum, c.IncludeDen)
	}
	if c.MaxTreeSize == 0 {
		c.MaxTreeSize = 6 * c.Tau
		if c.MaxTreeSize < 64 {
			c.MaxTreeSize = 64
		}
	}
	if c.MaxTreeSize < c.Tau {
		return c, fmt.Errorf("domain: MaxTreeSize %d below τ %d", c.MaxTreeSize, c.Tau)
	}
	return c, nil
}

// Domain is a selected watermark locality.
type Domain struct {
	Root cdfg.NodeID
	// To is the candidate fan-in tree T_o in canonical (rank) order. It is
	// Order.Ordered, shared with every other Select of the same root and
	// tree bounds on the graph's structure, across calls and goroutines:
	// read it, never write it.
	To []cdfg.NodeID
	// T is the selected subtree, in breadth-first selection order starting
	// with the root. T ⊆ To. T belongs to the caller.
	T []cdfg.NodeID
	// Order is the canonical ordering of To; Order.Rank names each node.
	// Shared like To, and read-only like it.
	Order *order.Result
}

// Contains reports whether v ∈ T.
func (d *Domain) Contains(v cdfg.NodeID) bool {
	for _, u := range d.T {
		if u == v {
			return true
		}
	}
	return false
}

// Eligible reports whether v can root a domain: a computational node with
// at least one computational data predecessor (a root with an empty
// fan-in tree carries no watermark).
func Eligible(g *cdfg.Graph, v cdfg.NodeID) bool {
	if !g.Node(v).Op.IsComputational() {
		return false
	}
	for _, u := range g.DataIn(v) {
		if g.Node(u).Op.IsComputational() {
			return true
		}
	}
	return false
}

// PickRoot pseudo-randomly selects a root node for domain selection among
// the Eligible nodes. It returns an error if the design has none.
func PickRoot(g *cdfg.Graph, bs *prng.Bitstream) (cdfg.NodeID, error) {
	return PickFrom(EligibleRoots(g), bs)
}

// EligibleRoots lists the Eligible nodes of g in ID order. Eligibility
// depends only on operations and data edges, so an embedder that adds
// temporal edges between draws may list the roots once and draw with
// PickFrom.
func EligibleRoots(g *cdfg.Graph) []cdfg.NodeID {
	var eligible []cdfg.NodeID
	for _, v := range g.Computational() {
		if Eligible(g, v) {
			eligible = append(eligible, v)
		}
	}
	return eligible
}

// PickFrom is PickRoot over a precomputed EligibleRoots list: the same
// draw, consuming the same bits.
func PickFrom(eligible []cdfg.NodeID, bs *prng.Bitstream) (cdfg.NodeID, error) {
	if len(eligible) == 0 {
		return cdfg.None, fmt.Errorf("domain: design has no node with computational fan-in")
	}
	return eligible[bs.Intn(len(eligible))], nil
}

// Select performs domain selection and identification at the given root.
// The returned Domain's T is a deterministic function of (g, root, the
// bitstream state); Select consumes bitstream bits.
//
// The ordered candidate tree depends on the graph's structure, the root,
// MaxDist and MaxTreeSize only, so Select keeps it in the graph's
// per-structure memo (see memo) and a later Select at the same root and
// bounds — on g or on a clone of it — only replays the bitstream walk.
// Select is safe for concurrent use by readers of an unchanging graph.
func Select(g *cdfg.Graph, bs *prng.Bitstream, root cdfg.NodeID, cfg Config) (*Domain, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if root < 0 || int(root) >= g.Len() {
		return nil, fmt.Errorf("domain: root %d out of range [0,%d)", root, g.Len())
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ord, err := sc.orderedTree(g, root, cfg)
	if err != nil {
		return nil, err
	}

	d := &Domain{Root: root, To: ord.Ordered, Order: ord}

	// Top-down breadth-first walk against edge direction. At each node the
	// bitstream picks at least one input to recurse into and then flips a
	// coin per remaining input. Candidate inputs are visited in canonical
	// rank order so the bit positions are unambiguous.
	//
	// A node is a candidate while it is in T_o and its rank is
	// non-negative: selection into T sets the rank to -1. T doubles as the
	// breadth-first queue.
	sc.marks.Reset(g.Len())
	if len(sc.rank) < g.Len() {
		sc.rank = make([]int32, g.Len())
	}
	for i, v := range ord.Ordered {
		sc.marks.Add(v)
		sc.rank[v] = int32(i)
	}
	sc.rank[root] = -1
	d.T = append(d.T, root)
	for head := 0; head < len(d.T) && len(d.T) < cfg.Tau; head++ {
		v := d.T[head]
		cands := sc.cands[:0]
		for _, u := range g.DataIn(v) {
			if sc.marks.Has(u) && sc.rank[u] >= 0 {
				cands = append(cands, u)
			}
		}
		sc.cands = cands
		if len(cands) == 0 {
			continue
		}
		// Canonical order of candidates (insertion sort: a node has a
		// handful of inputs).
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && sc.rank[cands[j]] < sc.rank[cands[j-1]]; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}

		mandatory := bs.Intn(len(cands))
		for i, u := range cands {
			take := i == mandatory || bs.Coin(cfg.IncludeNum, cfg.IncludeDen)
			if !take {
				continue
			}
			sc.rank[u] = -1
			d.T = append(d.T, u)
			if len(d.T) >= cfg.Tau {
				break
			}
		}
	}
	return d, nil
}

// RootFingerprint returns a cheap structural fingerprint of a node — its
// operation, arity, and the multiset of its data-input operations — used
// by detectors to reject candidate roots before paying for a full domain
// derivation. The fingerprint depends only on the node's immediate
// neighborhood, so it survives cropping and embedding into host systems.
// Its text, e.g. "3/2/[3 5]", is carried by watermark records.
func RootFingerprint(g *cdfg.Graph, v cdfg.NodeID) string {
	return string(AppendRootFingerprint(nil, g, v))
}

// AppendRootFingerprint appends RootFingerprint(g, v) to dst. A detector
// scanning many roots compares string(buf) against a record's
// fingerprint with one reused buf, allocating nothing per root.
func AppendRootFingerprint(dst []byte, g *cdfg.Graph, v cdfg.NodeID) []byte {
	ins := g.DataIn(v)
	var small [8]int
	ops := small[:0]
	for _, u := range ins {
		ops = append(ops, int(g.Node(u).Op))
	}
	// Insertion-sort the small op multiset for order independence.
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j] < ops[j-1]; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	dst = strconv.AppendInt(dst, int64(g.Node(v).Op), 10)
	dst = append(dst, '/')
	dst = strconv.AppendInt(dst, int64(len(ins)), 10)
	dst = append(dst, '/', '[')
	for i, op := range ops {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(op), 10)
	}
	return append(dst, ']')
}

// orderedTree returns the canonical ordering of root's capped fan-in tree
// T_o under cfg's bounds: from g's memo when it holds it, else computed
// and offered to the memo. Errors are not memoized.
func (sc *scratch) orderedTree(g *cdfg.Graph, root cdfg.NodeID, cfg Config) (*order.Result, error) {
	m := memoOf(g)
	slot := m.slot(root, cfg.MaxDist, cfg.MaxTreeSize)
	if slot != nil {
		if ord := slot.Load(); ord != nil {
			return ord, nil
		}
	}
	to, err := sc.cappedFaninTree(g, root, cfg.MaxDist, cfg.MaxTreeSize)
	if err != nil {
		return nil, err
	}
	ord, err := order.Order(g, root, to, 0)
	if err != nil {
		return nil, err
	}
	if slot != nil {
		ord = m.store(slot, ord)
	}
	return ord, nil
}

// FingerprintMatcher tests candidate roots against one record's root
// fingerprint, as a detector scanning every root does. It parses the
// fingerprint's "op/arity/" head once and rejects a root whose operation
// or data arity differs without formatting anything; the text comparison
// with RootFingerprint stays the deciding test. A fingerprint whose head
// is not two canonical integers (a malformed record) is compared as text
// at every root. A matcher reuses one buffer: use it from one goroutine.
type FingerprintMatcher struct {
	fp        string
	op, arity int
	head      bool // op and arity parsed from fp; every match has them
	buf       []byte
}

// NewFingerprintMatcher returns a matcher for the fingerprint fp.
func NewFingerprintMatcher(fp string) *FingerprintMatcher {
	m := &FingerprintMatcher{fp: fp}
	opText, rest, ok1 := strings.Cut(fp, "/")
	arityText, _, ok2 := strings.Cut(rest, "/")
	if ok1 && ok2 {
		op, err1 := strconv.Atoi(opText)
		arity, err2 := strconv.Atoi(arityText)
		// Only the canonical text of an integer can equal the formatted
		// fingerprint's head: "03" or "+3" is compared as text.
		m.head = err1 == nil && err2 == nil &&
			strconv.Itoa(op) == opText && strconv.Itoa(arity) == arityText
		m.op, m.arity = op, arity
	}
	return m
}

// Match reports whether RootFingerprint(g, v) equals the fingerprint.
func (m *FingerprintMatcher) Match(g *cdfg.Graph, v cdfg.NodeID) bool {
	if m.head && (int(g.Node(v).Op) != m.op || len(g.DataIn(v)) != m.arity) {
		return false
	}
	m.buf = AppendRootFingerprint(m.buf[:0], g, v)
	return string(m.buf) == m.fp
}

// scratch is the reusable state of one Select call. marks holds the
// nodes cappedFaninTree's walk has reached, then T_o, whose members' ranks
// are in rank.
type scratch struct {
	marks cdfg.NodeMarks
	rank  []int32
	tree  []cdfg.NodeID
	cands []cdfg.NodeID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// cappedFaninTree returns, in ascending ID order, root's fan-in tree of
// distance at most maxDist with a node-count cap: BFS levels are admitted
// whole while they fit, and the level that would overflow is admitted in
// ascending node-ID order up to the cap — a rule both the embedder and the
// detector apply identically. (Ascending-ID order is stable under the
// attacks the evaluation simulates: induced-subgraph cropping and host
// embedding both preserve the relative ID order of the surviving nodes.)
// The result aliases sc and is valid until sc's next use.
func (sc *scratch) cappedFaninTree(g *cdfg.Graph, root cdfg.NodeID, maxDist, maxNodes int) ([]cdfg.NodeID, error) {
	if maxNodes <= 0 {
		return nil, fmt.Errorf("domain: non-positive tree cap %d", maxNodes)
	}
	sc.marks.Reset(g.Len())
	sc.marks.Add(root)
	tree := append(sc.tree[:0], root)
	// tree[lo:hi] is the frontier, the level admitted last.
	for d, lo := 1, 0; d <= maxDist && lo < len(tree) && len(tree) < maxNodes; d++ {
		hi := len(tree)
		for _, v := range tree[lo:hi] {
			for _, u := range g.DataIn(v) {
				if sc.marks.Add(u) {
					tree = append(tree, u)
				}
			}
		}
		slices.Sort(tree[hi:])
		if len(tree) > maxNodes {
			tree = tree[:maxNodes]
			break
		}
		lo = hi
	}
	slices.Sort(tree)
	sc.tree = tree
	return tree, nil
}

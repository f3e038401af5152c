package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/store"
	"localwm/lwmapi"
)

// Request kinds. Every latency, byte count and server-timing split is
// reported per kind.
const (
	kindEmbed  = "embed"
	kindVerify = "verify"
	kindDetect = "detect"
	kindPut    = "put"
	kindJob    = "job"
)

var kinds = []string{kindEmbed, kindVerify, kindDetect, kindPut, kindJob}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"mark", "audit", "cover", "color"}

// Design is one generated design: its family and canonical text (the
// bytes the daemon's registry hashes), with its content-addressed ref.
type Design struct {
	Name   string
	Family string
	Text   string
	Ref    string
	Nodes  int
}

// Op is one request of a workload script. Exactly one payload matches
// Kind (a job carries an embed payload).
type Op struct {
	Kind   string
	Family string
	Embed  *lwmapi.EmbedRequest
	Verify *lwmapi.VerifyRequest
	Detect *lwmapi.DetectRequest
	Put    *Design
	// After names the script indices of puts that must have completed
	// before this op is sent (a detect scanning freshly put suspects).
	After []int
	// Key identifies the request's content: ops with equal keys must
	// get byte-equal answers, and a job shares its key with the sync
	// embed of the same request.
	Key string
	// Owned lists the suspect×record cells of a detect whose record
	// belongs to the suspect's true owner: those must be found.
	Owned [][2]int
}

// Workload is the seeded input of one benchmark run: the designs
// registered during set-up, the warm-up requests, and the script the
// closed loop cycles through.
type Workload struct {
	Corpus []*Design
	Warm   []Op
	Script []Op
	// Texts maps the ref of every design the workload registers, at
	// set-up or during the run, to its canonical text.
	Texts map[string]string
	// Known holds reference answers computed while generating inputs:
	// marking a suspect is the sequential reference embed of the same
	// request.
	Known map[string][32]byte
}

// Suspect is a marked design as a thief ships it: the design without
// its constraints, the marked solution, and the owner's records.
type Suspect struct {
	Design   *Design
	Solution string
	Owner    string
	Records  []lwmapi.Record
	// embed is the reference answer to the embed that marked it.
	embed []byte
}

func newWorkload() *Workload {
	return &Workload{Texts: map[string]string{}, Known: map[string][32]byte{}}
}

// register adds designs to the set-up corpus.
func (w *Workload) register(ds ...*Design) {
	for _, d := range ds {
		w.Corpus = append(w.Corpus, d)
		w.Texts[d.Ref] = d.Text
	}
}

// learn records the reference answers generation produced for sps.
func (w *Workload) learn(sps ...*Suspect) {
	for _, sp := range sps {
		w.Texts[sp.Design.Ref] = sp.Design.Text
		op := embedOp(sp.Design, sp.Owner, true)
		if sp.Design.Family != lwmapi.FamilySched {
			continue // the marked design differs from the embedded one
		}
		w.Known[op.Key] = sha256.Sum256(sp.embed)
	}
}

// markParams are the family defaults: the zero value, which the daemon
// and the reference both normalize identically.
var markParams = lwmapi.MarkParams{}

func owner(seed int64, i int) string { return fmt.Sprintf("lwmbench-%d-owner-%d", seed, i) }

// opKey hashes a request's kind-neutral content.
func opKey(kind string, v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("lwmbench: encoding %s request: %v", kind, err))
	}
	sum := sha256.Sum256(append([]byte(kind+"\n"), raw...))
	return hex.EncodeToString(sum[:8])
}

func newDesign(fam, name, text string) (*Design, error) {
	fam = lwmapi.CanonicalFamily(fam)
	canonical, err := store.CanonicalizeFamily(fam, text)
	if err != nil {
		return nil, fmt.Errorf("design %s: %w", name, err)
	}
	proto, err := family.Lookup(fam)
	if err != nil {
		return nil, err
	}
	d, err := proto.ParseDesign(canonical)
	if err != nil {
		return nil, fmt.Errorf("design %s: %w", name, err)
	}
	return &Design{Name: name, Family: fam, Text: canonical,
		Ref: store.RefOfFamily(fam, "", canonical), Nodes: d.Nodes()}, nil
}

func cdfgText(g *cdfg.Graph) string {
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, g); err != nil {
		panic(fmt.Sprintf("lwmbench: writing generated cdfg: %v", err))
	}
	return buf.String()
}

// mediaBench builds the eight Table I applications at the paper's
// operation counts and op mixes, with the generator re-keyed by tag and
// seed: a new seed gives new graphs of the same sizes and mixes.
func mediaBench(tag string, seed int64) []*cdfg.Graph {
	var out []*cdfg.Graph
	for _, app := range designs.MediaBench() {
		cfg := app.Cfg
		cfg.Name = fmt.Sprintf("%s/%s/%d", app.Name, tag, seed)
		out = append(out, designs.Layered(cfg))
	}
	return out
}

// embedRef embeds through the sequential reference: the family
// Protocol with one worker, on the family's default parameters.
func embedRef(d *Design, sig string) (*lwmapi.EmbedResponse, error) {
	proto, err := family.Lookup(d.Family)
	if err != nil {
		return nil, err
	}
	fd, err := proto.ParseDesign(d.Text)
	if err != nil {
		return nil, err
	}
	p := markParams
	proto.Normalize(&p)
	return proto.Embed(context.Background(), fd, sig, p, 1)
}

// markSuspect marks d for sig and returns the suspect a thief would
// ship. For sched that is the unmarked design text plus a schedule that
// honors the watermark's temporal edges; for the other families it is
// the marked design and the marked solution.
func markSuspect(d *Design, sig string) (*Suspect, error) {
	resp, err := embedRef(d, sig)
	if err != nil {
		return nil, fmt.Errorf("marking %s: %w", d.Name, err)
	}
	body, err := serverJSON(resp)
	if err != nil {
		return nil, err
	}
	sp := &Suspect{Design: d, Owner: sig, Records: resp.Records, embed: body}
	switch d.Family {
	case lwmapi.FamilySched:
		g, err := cdfg.Parse(strings.NewReader(resp.MarkedDesign))
		if err != nil {
			return nil, err
		}
		s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
		if err != nil {
			return nil, fmt.Errorf("scheduling %s: %w", d.Name, err)
		}
		var buf bytes.Buffer
		if err := sched.WriteSchedule(&buf, g, s); err != nil {
			return nil, err
		}
		sp.Solution = buf.String()
	default:
		md, err := newDesign(d.Family, d.Name+"/marked", resp.MarkedDesign)
		if err != nil {
			return nil, err
		}
		sp.Design = md
		sp.Solution = resp.MarkedSolution
	}
	return sp, nil
}

// parallelMap runs f over n items on every CPU and returns the first
// error. Input generation and reference checks use it; neither is timed.
func parallelMap(n int, f func(i int) error) error {
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next sync.Mutex
	idx := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// markAll marks ds[i] for sigs[i]. Where the sequential reference cannot
// place every requested watermark (no locality of the design fits the
// signature's walks within the retry cap), the signature is redrawn as
// "<sig>/1", "<sig>/2", ...: the benchmark sends only embeds the
// reference completes. The returned suspects carry the signature that
// marked them.
func markAll(ds []*Design, sigs []string) ([]*Suspect, error) {
	out := make([]*Suspect, len(ds))
	err := parallelMap(len(ds), func(i int) error {
		var err error
		for attempt := 0; attempt < 16; attempt++ {
			sig := sigs[i]
			if attempt > 0 {
				sig = fmt.Sprintf("%s/%d", sig, attempt)
			}
			out[i], err = markSuspect(ds[i], sig)
			if err == nil && out[i].complete() {
				return nil
			}
			if err == nil {
				err = fmt.Errorf("marking %s: placed %d of the requested watermarks", ds[i].Name, len(out[i].Records))
			}
		}
		return err
	})
	return out, err
}

// complete reports whether every requested watermark was placed.
func (sp *Suspect) complete() bool {
	p := markParams
	proto, _ := family.Lookup(sp.Design.Family)
	proto.Normalize(&p)
	return len(sp.Records) == p.N
}

func embedOp(d *Design, sig string, inline bool) Op {
	req := &lwmapi.EmbedRequest{Family: familyField(d.Family), Signature: sig, MarkParams: markParams}
	if inline {
		req.Design = d.Text
	} else {
		req.DesignRef = d.Ref
	}
	return Op{Kind: kindEmbed, Family: d.Family, Embed: req, Key: opKey(kindEmbed, req)}
}

func verifyOp(sp *Suspect, inline bool) Op {
	req := &lwmapi.VerifyRequest{Family: familyField(sp.Design.Family), Schedule: sp.Solution,
		Signature: sp.Owner, MarkParams: markParams}
	if inline {
		req.Design = sp.Design.Text
	} else {
		req.DesignRef = sp.Design.Ref
	}
	return Op{Kind: kindVerify, Family: sp.Design.Family, Verify: req, Key: opKey(kindVerify, req)}
}

// markOp is the embed (or durable job) that marks sp's design for sp's
// owner.
func markOp(sp *Suspect, job bool) Op {
	op := embedOp(sp.Design, sp.Owner, true)
	if job {
		op.Kind = kindJob
	}
	return op
}

// detectOp scans every suspect for every record; owned marks the cells
// whose record belongs to that suspect's owner ("" owns nothing).
func detectOp(sps []*Suspect, recs []lwmapi.Record, owners []string, inline bool) Op {
	req := &lwmapi.DetectRequest{Family: familyField(sps[0].Design.Family), Records: recs}
	var owned [][2]int
	for i, sp := range sps {
		s := lwmapi.Suspect{Schedule: sp.Solution}
		if inline {
			s.Design = sp.Design.Text
		} else {
			s.DesignRef = sp.Design.Ref
		}
		req.Suspects = append(req.Suspects, s)
		for j, o := range owners {
			if o != "" && o == sp.Owner {
				owned = append(owned, [2]int{i, j})
			}
		}
	}
	return Op{Kind: kindDetect, Family: sps[0].Design.Family, Detect: req,
		Key: opKey(kindDetect, req), Owned: owned}
}

func putOp(d *Design) Op {
	return Op{Kind: kindPut, Family: d.Family, Put: d,
		Key: opKey(kindPut, lwmapi.PutDesignRequest{Family: familyField(d.Family), Design: d.Text})}
}

// familyField leaves the family unset for sched, as sched clients send.
func familyField(fam string) string {
	if fam == lwmapi.FamilySched {
		return ""
	}
	return fam
}

// warmSig signs every warm-up request, so set-up does the same work
// for every seed.
const warmSig = "lwmbench-warm"

// warmSched registers a small Table II design the scheduling family
// embeds at its defaults and returns warm-up requests for every sched
// request path.
func warmSched(w *Workload) ([]Op, error) {
	d, err := newDesign(lwmapi.FamilySched, "warm/modem", cdfgText(designs.ModemFilter()))
	if err != nil {
		return nil, err
	}
	sps, err := markAll([]*Design{d}, []string{warmSig})
	if err != nil {
		return nil, err
	}
	sp := sps[0]
	w.register(d)
	w.learn(sp)
	return []Op{embedOp(d, sp.Owner, true), verifyOp(sp, false),
		detectOp([]*Suspect{sp}, sp.Records[:1], []string{sp.Owner}, false), markOp(sp, true)}, nil
}

// buildWorkload generates a workload's inputs from its seed. The same
// seed gives byte-identical inputs; another seed gives other signatures,
// and for color other graphs of the same sizes and op mixes.
func buildWorkload(name string, seed int64) (*Workload, error) {
	switch name {
	case "mark":
		return buildMark(seed)
	case "audit":
		return buildAudit(seed)
	case "cover":
		return buildCover(seed)
	case "color":
		return buildColor(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func schedDesigns(tag string, seed int64) ([]*Design, error) {
	var out []*Design
	for i, g := range mediaBench(tag, seed) {
		d, err := newDesign(lwmapi.FamilySched, fmt.Sprintf("%s/%d", tag, i), cdfgText(g))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// markRounds is how many rounds of the Table II designs mark prepares,
// each with signatures of its own: more than a run at this commit
// completes, so every embed and verify of a run places watermarks for a
// signature of its own. A faster daemon wraps around and repeats rounds.
const markRounds = 96

// markDesigns are the Table II designs the scheduling family embeds at
// its defaults (it rejects the Linear GE controller and the wavelet
// filter).
var markDesigns = []int{0, 3, 4, 5, 6, 7}

// buildMark: sched inline embeds of the Table II designs for a new
// signature each, a quarter of them as durable jobs re-submitting the
// previous round's sync embed (so job and sync answers compare byte for
// byte), interleaved with verifies by ref against suspects registered at
// set-up.
func buildMark(seed int64) (*Workload, error) {
	w := newWorkload()
	warm, err := warmSched(w)
	if err != nil {
		return nil, err
	}
	w.Warm = []Op{warm[0], warm[1], warm[3]}
	rows := designs.Table2()
	var ds []*Design
	for _, i := range markDesigns {
		d, err := newDesign(lwmapi.FamilySched, fmt.Sprintf("table2/%d", i), cdfgText(rows[i].Build()))
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	w.register(ds...)
	var marks []*Design
	var sigs []string
	for r := 0; r < markRounds; r++ {
		for _, d := range ds {
			marks = append(marks, d)
			sigs = append(sigs, owner(seed, 8+len(sigs)))
		}
	}
	sps, err := markAll(marks, sigs)
	if err != nil {
		return nil, err
	}
	w.learn(sps...)
	apps := len(ds)
	for k, sp := range sps {
		if r, i := k/apps, k%apps; r > 0 && (r+i)%4 == 3 {
			w.Script = append(w.Script, markOp(sps[k-apps], true))
		} else {
			w.Script = append(w.Script, markOp(sp, false))
		}
		w.Script = append(w.Script, verifyOp(sp, false))
	}
	return w, nil
}

const (
	// auditMarked is how many Table I-size suspects an audit registers
	// marked, each by one of four owners (two keyings of the eight
	// applications).
	auditMarked = 16
	// auditInnocents is the pool of unmarked suspects: four registered
	// at set-up, the rest put during the run.
	auditInnocents = 12
	// auditBatches is how many distinct detect batches the audit script
	// sends: more than a run at this commit completes, so a run scans a
	// prefix of the script and repeats none of it.
	auditBatches = 40
	// auditForeign is how many other owners' records each batch scans
	// for besides the marked suspect's own.
	auditForeign = 3
	// auditGraphs keys the audited graphs, the same for every seed: a
	// scan's cost hinges on the graphs' fan-in trees and fingerprint
	// multiplicities, and graphs drawn anew for each seed moved a run's
	// rate by more than the bound allows. The seed draws the owners'
	// signatures, the other owners' records and their batches.
	auditGraphs = 0
)

// buildAudit: sched detect-by-ref batches, each scanning a marked
// suspect and an unmarked one for one of the marked suspect's records
// (its true owner's) and for records of other owners, interleaved with
// puts of fresh unmarked suspects that join the scan rotation once
// registered.
func buildAudit(seed int64) (*Workload, error) {
	w := newWorkload()
	warm, err := warmSched(w)
	if err != nil {
		return nil, err
	}
	w.Warm = []Op{warm[2], putOp(w.Corpus[0])}
	var ds []*Design
	for t := 0; t*8 < auditMarked; t++ {
		more, err := schedDesigns(fmt.Sprintf("audit%d", t), auditGraphs)
		if err != nil {
			return nil, err
		}
		ds = append(ds, more...)
	}
	sigs := make([]string, len(ds))
	for i := range ds {
		sigs[i] = owner(seed, 1+i%4)
	}
	marked, err := markAll(ds, sigs)
	if err != nil {
		return nil, err
	}
	w.register(ds...)
	w.learn(marked...)
	innocents := make([]*Suspect, auditInnocents)
	graphs := make([]*cdfg.Graph, auditInnocents)
	apps := designs.MediaBench()
	for k := range innocents {
		cfg := apps[k%len(apps)].Cfg
		cfg.Name = fmt.Sprintf("%s/innocent/%d/%d", cfg.Name, auditGraphs, k)
		graphs[k] = designs.Layered(cfg)
		if innocents[k], err = innocentSuspect(fmt.Sprintf("innocent/%d", k), graphs[k]); err != nil {
			return nil, err
		}
	}
	// Plan the batches: the marked suspect and the innocent each scans,
	// with a put of the next innocent before every other batch until all
	// are registered.
	const initial = 4
	for _, sp := range innocents[:initial] {
		w.register(sp.Design)
	}
	type batch struct{ m, j, put int }
	plan := make([]batch, auditBatches)
	avail := initial
	for b := range plan {
		plan[b] = batch{m: b % len(marked), put: -1}
		if avail < auditInnocents && b%2 == 1 {
			plan[b].put = avail
			avail++
		}
		plan[b].j = (b * 5) % avail
	}
	markedFPs := make([]map[string]int, len(marked))
	for i, sp := range marked {
		g, err := cdfg.Parse(strings.NewReader(sp.Design.Text))
		if err != nil {
			return nil, err
		}
		markedFPs[i] = rootFingerprints(g)
	}
	counts := make([]map[string]int, len(plan))
	for b, p := range plan {
		counts[b] = map[string]int{}
		for _, fps := range []map[string]int{markedFPs[p.m], rootFingerprints(graphs[p.j])} {
			for fp, n := range fps {
				counts[b][fp] += n
			}
		}
	}
	foreign, err := foreignRecords(seed, graphs, counts, auditForeign)
	if err != nil {
		return nil, err
	}
	putAt := map[int]int{} // innocent -> script index of its put
	for k := 0; k < initial; k++ {
		putAt[k] = -1
	}
	owners := make([]string, 1+auditForeign)
	for b, p := range plan {
		if p.put >= 0 {
			putAt[p.put] = len(w.Script)
			w.Texts[innocents[p.put].Design.Ref] = innocents[p.put].Design.Text
			w.Script = append(w.Script, putOp(innocents[p.put].Design))
		}
		m := marked[p.m]
		recs := append([]lwmapi.Record{m.Records[(b/len(marked))%len(m.Records)]}, foreign[b]...)
		owners[0] = m.Owner
		op := detectOp([]*Suspect{m, innocents[p.j]}, recs, owners, false)
		if at := putAt[p.j]; at >= 0 {
			op.After = []int{at}
		}
		w.Script = append(w.Script, op)
	}
	return w, nil
}

// eligibleRoot reports whether a detect scan considers v as a root: a
// computational node with a computational data input.
func eligibleRoot(g *cdfg.Graph, v cdfg.NodeID) bool {
	for _, u := range g.DataIn(v) {
		if g.Node(u).Op.IsComputational() {
			return true
		}
	}
	return false
}

// rootFingerprints counts g's eligible roots by structural fingerprint.
func rootFingerprints(g *cdfg.Graph) map[string]int {
	out := map[string]int{}
	for _, v := range g.Computational() {
		if eligibleRoot(g, v) {
			out[domain.RootFingerprint(g, v)]++
		}
	}
	return out
}

// foreignRecords stands in for the registered records of owners whose
// designs the audit does not hold: k for each batch, each claiming a
// watermark of the scheduling defaults (τ=20, K=4 rank edges) rooted at
// a root of one of the Table I-size graphs. Scanning one costs what
// scanning a genuine record with that root fingerprint costs: a domain
// derivation and an ordering at every root of the scanned suspects that
// shares the fingerprint, from none to dozens. So a batch's records are
// a stratified sample of the candidate roots ordered by that count for
// the batch's suspects (counts[b]), one from each of k strata: every
// batch, for every seed, scans the same mix of cheap and costly records,
// and a run's scan cost does not hinge on a few draws of a common or a
// rare fingerprint. Marking enough designs to draw as many genuine
// records would cost more than the measurement.
func foreignRecords(seed int64, graphs []*cdfg.Graph, counts []map[string]int, k int) ([][]lwmapi.Record, error) {
	type root struct {
		fp   string
		g, v int
	}
	var roots []root
	for gi, g := range graphs {
		for _, v := range g.Computational() {
			if eligibleRoot(g, v) {
				roots = append(roots, root{domain.RootFingerprint(g, v), gi, int(v)})
			}
		}
	}
	if len(roots) < k {
		return nil, fmt.Errorf("foreign records: %d candidate roots, need %d", len(roots), k)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]lwmapi.Record, len(counts))
	n := 0
	for b, cnt := range counts {
		sort.Slice(roots, func(i, j int) bool {
			a, c := roots[i], roots[j]
			if cnt[a.fp] != cnt[c.fp] {
				return cnt[a.fp] < cnt[c.fp]
			}
			if a.fp != c.fp {
				return a.fp < c.fp
			}
			if a.g != c.g {
				return a.g < c.g
			}
			return a.v < c.v
		})
		for q := 0; q < k; q++ {
			r := roots[int((float64(q)+rng.Float64())*float64(len(roots))/float64(k))]
			rec := lwmapi.Record{
				Signature: prng.Signature(fmt.Sprintf("lwmbench-%d-other-%d", seed, n)),
				Try:       1,
				DomainCfg: domain.Config{Tau: 20},
				TLen:      20,
				RootFP:    r.fp,
			}
			n++
			for e := 0; e < 4; e++ {
				a, c := rng.Intn(20), rng.Intn(20)
				if a == c {
					c = (a + 1) % 20
				}
				rec.RankEdges = append(rec.RankEdges, [2]int{a, c})
			}
			out[b] = append(out[b], rec)
		}
	}
	return out, nil
}

// innocentSuspect is an unmarked design with an unmarked schedule: most
// designs an auditor scans carry nobody's watermark.
func innocentSuspect(name string, g *cdfg.Graph) (*Suspect, error) {
	d, err := newDesign(lwmapi.FamilySched, name, cdfgText(g))
	if err != nil {
		return nil, err
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sched.WriteSchedule(&buf, g, s); err != nil {
		return nil, err
	}
	return &Suspect{Design: d, Solution: buf.String()}, nil
}

// coverRounds is how many owners mark each cover design.
const coverRounds = 72

// buildCover: tmwm embed, detect and verify on the six small Table II
// DSP designs (28–81 nodes), each marked by coverRounds owners; detects
// also scan for other owners' records, from coverRounds/2 more owners of
// each design.
func buildCover(seed int64) (*Workload, error) {
	var ds []*Design
	for i, row := range designs.Table2()[:6] {
		d, err := newDesign(lwmapi.FamilyTmwm, fmt.Sprintf("table2/%d", i), cdfgText(row.Build()))
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	var others []*Design
	for r := 0; r < coverRounds/2; r++ {
		others = append(others, ds...)
	}
	return buildInline(seed, ds, coverRounds, others, ds)
}

// buildColor: gcolor on instances of 200–800 vertices at edge
// probability 1/14; other owners' records come from instances of the
// same sizes under another key, and warm-up runs on instances of the
// same sizes that no seed changes.
func buildColor(seed int64) (*Workload, error) {
	instances := func(key string) ([]*Design, error) {
		var out []*Design
		for i := 0; i < 8; i++ {
			n := 200 + 600*i/7
			g, err := gcolor.RandomGraph(fmt.Sprintf("lwmbench/%s/%d", key, i), n, 1, 14)
			if err != nil {
				return nil, err
			}
			d, err := newDesign(lwmapi.FamilyGcolor, fmt.Sprintf("%s/%d", key, i), gcolor.FormatGraph(g))
			if err != nil {
				return nil, err
			}
			out = append(out, d)
		}
		return out, nil
	}
	ds, err := instances(fmt.Sprintf("color/%d", seed))
	if err != nil {
		return nil, err
	}
	others, err := instances(fmt.Sprintf("owners/%d", seed))
	if err != nil {
		return nil, err
	}
	warm, err := instances("warm")
	if err != nil {
		return nil, err
	}
	return buildInline(seed, ds, 1, others, warm)
}

// inlineForeign is how many other owners' records each inline detect
// scans for besides the true owner's.
const inlineForeign = 3

// buildInline: for each of rounds owners per design, an inline embed, a
// detect of the owner's record and of other owners' records (marked on
// the others designs) in the marked solution, and a verify of the
// owner's claim. Warm-up runs the same requests once on each warm design
// for a fixed signature: designs of every size the run sends that no
// seed changes, so set-up does the same work for every seed, and enough
// of it that process start does not dominate its time.
func buildInline(seed int64, ds []*Design, rounds int, others, warm []*Design) (*Workload, error) {
	w := newWorkload()
	var all []*Design
	for r := 0; r < rounds; r++ {
		all = append(all, ds...)
	}
	marked := len(all)
	all = append(append(all, others...), warm...)
	warmAt := len(all) - len(warm)
	sigs := make([]string, len(all))
	for i := range all {
		switch {
		case i < marked:
			sigs[i] = owner(seed, i)
		case i < warmAt:
			sigs[i] = owner(seed, 1000+i)
		default:
			sigs[i] = warmSig
		}
	}
	sps, err := markAll(all, sigs)
	if err != nil {
		return nil, err
	}
	var pool []lwmapi.Record
	for _, sp := range sps[marked:warmAt] {
		pool = append(pool, sp.Records...)
	}
	owners := make([]string, 1+inlineForeign)
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for r := 0; r < rounds; r++ {
		// Shuffle each round per seed so no size class always leads.
		for _, i := range rng.Perm(len(ds)) {
			sp := sps[r*len(ds)+i]
			recs := []lwmapi.Record{sp.Records[0]}
			for k := 0; k < inlineForeign; k++ {
				recs = append(recs, pool[(n*inlineForeign+k)%len(pool)])
			}
			n++
			owners[0] = sp.Owner
			// The suspect carries the marked design; the embed marks ds[i].
			w.Script = append(w.Script, embedOp(ds[i], sp.Owner, true),
				detectOp([]*Suspect{sp}, recs, owners, true),
				verifyOp(sp, true))
		}
	}
	for i, ws := range sps[warmAt:] {
		w.Warm = append(w.Warm, embedOp(warm[i], ws.Owner, true),
			detectOp([]*Suspect{ws}, ws.Records, []string{ws.Owner}, true), verifyOp(ws, true))
	}
	return w, nil
}

// digestPrefix is how many requests from the start of the script the
// response digest covers besides set-up: fewer than any run completes.
const digestPrefix = 48

// digestOps lists the requests whose answers the response digest covers:
// set-up (the corpus puts and the warm-up) and the first digestPrefix
// requests of the script. The list depends on the seed only.
func (w *Workload) digestOps() []*Op {
	var out []*Op
	for _, d := range w.Corpus {
		op := putOp(d)
		out = append(out, &op)
	}
	for i := range w.Warm {
		out = append(out, &w.Warm[i])
	}
	for i := 0; i < len(w.Script) && i < digestPrefix; i++ {
		out = append(out, &w.Script[i])
	}
	return out
}

// inputDigest hashes every generated input of a workload, for the
// determinism test and the result's provenance.
func (w *Workload) inputDigest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, d := range w.Corpus {
		_ = enc.Encode(d)
	}
	for _, ops := range [][]Op{w.Warm, w.Script} {
		for _, op := range ops {
			_ = enc.Encode(op)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

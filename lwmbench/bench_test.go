package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/lwmapi"
)

func build(t *testing.T, name string, seed int64) *Workload {
	t.Helper()
	w, err := buildWorkload(name, seed)
	if err != nil {
		t.Fatalf("building %s for seed %d: %v", name, seed, err)
	}
	return w
}

// TestSeedDeterminesInputs: the same seed generates byte-identical
// inputs; another seed generates other inputs of the same sizes and op
// mixes.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			a, again, other := build(t, name, 1), build(t, name, 1), build(t, name, 2)
			if a.inputDigest() != again.inputDigest() {
				t.Fatal("seed 1 generated different inputs on a second build")
			}
			if a.inputDigest() == other.inputDigest() {
				t.Fatal("seeds 1 and 2 generated identical inputs")
			}
			if len(a.Corpus) != len(other.Corpus) || len(a.Script) != len(other.Script) {
				t.Fatalf("corpus/script sizes differ: %d/%d vs %d/%d",
					len(a.Corpus), len(a.Script), len(other.Corpus), len(other.Script))
			}
			// Cover and color shuffle their design order per seed, so
			// designs pair up by size (fixed designs tie-break on mix).
			sa, so := shapes(t, a), shapes(t, other)
			for _, ss := range [][]shape{sa, so} {
				sort.Slice(ss, func(i, j int) bool {
					if ss[i].size != ss[j].size {
						return ss[i].size < ss[j].size
					}
					return fmt.Sprint(ss[i].mix) < fmt.Sprint(ss[j].mix)
				})
			}
			if len(sa) != len(so) {
				t.Fatalf("%d designs for seed 1, %d for seed 2", len(sa), len(so))
			}
			for i := range sa {
				if sa[i].size != so[i].size {
					t.Errorf("design %d: size %d for seed 1, %d for seed 2", i, sa[i].size, so[i].size)
				}
				// Shares are drawn from the same op mix: two draws of n ops
				// differ by a few binomial standard deviations at most.
				for op, p := range sa[i].mix {
					tol := 5*math.Sqrt(2*p*(1-p)/float64(sa[i].size)) + 0.01
					if d := p - so[i].mix[op]; math.Abs(d) > tol {
						t.Errorf("design %d: op %s share %.3f for seed 1, %.3f for seed 2", i, op, p, so[i].mix[op])
					}
				}
			}
		})
	}
}

// shape is a design's size (operations, or vertices for gcolor) and op
// mix (operation shares, or edge density for gcolor).
type shape struct {
	size int
	mix  map[string]float64
}

// shapes lists the shape of every design a workload sends, in script
// order of first use.
func shapes(t *testing.T, w *Workload) []shape {
	t.Helper()
	seen := map[string]bool{}
	var out []shape
	add := func(fam, text string) {
		if text == "" || seen[text] {
			return
		}
		seen[text] = true
		if fam == lwmapi.FamilyGcolor {
			g, err := gcolor.ParseGraph(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			n := float64(g.N())
			out = append(out, shape{size: g.N(), mix: map[string]float64{"density": float64(g.Edges()) / (n * (n - 1) / 2)}})
			return
		}
		g, err := cdfg.Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		s := shape{mix: map[string]float64{}}
		for _, v := range g.Computational() {
			s.size++
			s.mix[g.Node(v).Op.String()]++
		}
		for op := range s.mix {
			s.mix[op] /= float64(s.size)
		}
		out = append(out, s)
	}
	for _, d := range w.Corpus {
		add(d.Family, d.Text)
	}
	for _, op := range w.Script {
		switch {
		case op.Embed != nil:
			add(op.Family, op.Embed.Design)
		case op.Put != nil:
			add(op.Family, op.Put.Text)
		}
	}
	return out
}

// TestCheckerRejectsTampering: a response equal to the sequential
// reference passes; one flipped byte, a missed true-owner detection or
// an unverified claim fails the run.
func TestCheckerRejectsTampering(t *testing.T) {
	w := build(t, "color", 1)
	chk := newChecker(w)
	var rs []*result
	for i := range w.Script[:3] {
		op := &w.Script[i]
		body, err := chk.reference(op)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, &result{idx: i, op: op, hash: sha256.Sum256(body)})
	}
	v, err := chk.check(rs, w.digestOps())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Mismatches) != 0 || v.Checked != 3 {
		t.Fatalf("untampered responses: checked %d, mismatches %v", v.Checked, v.Mismatches)
	}
	// A run that got less far digests the same answers.
	short, err := newChecker(w).check(rs[:1], w.digestOps())
	if err != nil {
		t.Fatal(err)
	}
	if short.Digest != v.Digest || v.DigestOps != len(w.Corpus)+len(w.Warm)+len(w.Script) {
		t.Errorf("digest over %d requests: %s after 3 responses, %s after 1", v.DigestOps, v.Digest, short.Digest)
	}

	body, err := chk.reference(&w.Script[0])
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)/2] ^= 1
	tampered := *rs[0]
	tampered.hash = sha256.Sum256(body)
	missed := *rs[1]
	missed.semErr = "owner's record 0 not found in suspect 0"
	for _, r := range []*result{&tampered, &missed} {
		v, err := chk.check([]*result{r}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Mismatches) != 1 {
			t.Errorf("%s #%d: want one mismatch, got %v", r.op.Kind, r.idx, v.Mismatches)
		}
	}
}

// TestMetricNames: every metric the benchmark emits has a valid name
// and unit, and BENCHMARK.json lists exactly the emitted metrics.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	lr := &loadRun{window: time.Second, busy: time.Second}
	e2e := metrics{}
	report := endToEndMetrics(e2e, lr, []time.Duration{time.Second}, 1)
	layers := layerMetrics(&traceRun{}, lr, nil, nil)
	for _, ms := range []metrics{e2e, report, layers} {
		for name, m := range ms {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q", name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q", name, m.Unit)
			}
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var specWorkloads []string
	for _, wl := range spec.Workloads {
		specWorkloads = append(specWorkloads, wl.Name)
	}
	if strings.Join(specWorkloads, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", specWorkloads, workloadNames)
	}
	compare := func(what string, listed []struct{ Name, Unit string }, emitted metrics) {
		var want, got []string
		for name, m := range emitted {
			want = append(want, name+" "+m.Unit)
		}
		for _, m := range listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			t.Errorf("%s: BENCHMARK.json lists\n%v\nthe benchmark emits\n%v", what, got, want)
		}
	}
	compare("end_to_end", spec.EndToEnd, e2e)
	compare("per_layer", spec.PerLayer, layers)
	if len(e2e) != len(endToEnd) {
		t.Errorf("emitted %d end-to-end metrics, endToEnd names %d", len(e2e), len(endToEnd))
	}
}

// TestBypassChecks: the CPU-profile check flags ordering and domain
// selection on color when requests do them (sched embeds), and sees
// neither in graph-coloring requests.
func TestBypassChecks(t *testing.T) {
	layers := func(fam, text, sig string) metrics {
		t.Helper()
		proto, err := family.Lookup(fam)
		if err != nil {
			t.Fatal(err)
		}
		p := markParams
		proto.Normalize(&p)
		prof, err := profiled(t.TempDir(), func() error {
			for start := time.Now(); time.Since(start) < time.Second; {
				d, err := proto.ParseDesign(text)
				if err != nil {
					return err
				}
				if _, err := proto.Embed(context.Background(), d, sig, p, 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		m := metrics{}
		for _, l := range []string{"order", "domain"} {
			share, n := prof.share("localwm/internal/" + l)
			t.Logf("%s: %d of %d samples through %s", fam, n, prof.samples(), l)
			m.set(l+".cpu_share", share, "ratio", n)
		}
		m.set("engine.spec_attempts", 0, "count", 0)
		return m
	}
	d, err := newDesign(lwmapi.FamilySched, "modem", cdfgText(designs.ModemFilter()))
	if err != nil {
		t.Fatal(err)
	}
	sps, err := markAll([]*Design{d}, []string{warmSig})
	if err != nil {
		t.Fatal(err)
	}
	if v := bypassViolations("color", layers(lwmapi.FamilySched, d.Text, sps[0].Owner)); len(v) != 2 {
		t.Errorf("sched embeds checked as color: %v, want order and domain flagged", v)
	}
	g, err := gcolor.RandomGraph("lwmbench/bypass", 400, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	if v := bypassViolations("color", layers(lwmapi.FamilyGcolor, gcolor.FormatGraph(g), warmSig)); len(v) != 0 {
		t.Errorf("gcolor embeds: %v", v)
	}
	busy := metrics{"engine.spec_attempts": {Value: 1}}
	for wl, n := range map[string]int{"mark": 0, "audit": 1, "cover": 1} {
		if v := bypassViolations(wl, busy); len(v) != n {
			t.Errorf("%s with speculation: %v, want %d violations", wl, v, n)
		}
	}
}

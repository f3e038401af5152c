package family_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/family"
	"localwm/internal/gcolor"
	"localwm/internal/sched"
	"localwm/lwmapi"
)

func TestLookup(t *testing.T) {
	for _, name := range []string{"", "sched", "tmwm", "gcolor"} {
		p, err := family.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		want := lwmapi.CanonicalFamily(name)
		if p.Name() != want {
			t.Errorf("Lookup(%q).Name() = %q, want %q", name, p.Name(), want)
		}
	}
	if _, err := family.Lookup("nosuch"); err == nil {
		t.Fatal("unknown family resolved")
	} else if !strings.Contains(err.Error(), "unknown") || !strings.Contains(err.Error(), "gcolor") {
		t.Errorf("unknown-family error should list the registry: %v", err)
	}
}

func TestNamesAndInfos(t *testing.T) {
	names := family.Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names not sorted: %v", names)
	}
	if !reflect.DeepEqual(names, []string{"gcolor", "sched", "tmwm"}) {
		t.Errorf("registry = %v", names)
	}
	infos := family.Infos()
	if len(infos) != len(names) {
		t.Fatalf("%d infos for %d names", len(infos), len(names))
	}
	for i, fi := range infos {
		if fi.Name != names[i] {
			t.Errorf("info %d: %q != %q", i, fi.Name, names[i])
		}
		if fi.Description == "" || fi.Defaults.N <= 0 {
			t.Errorf("%s: incomplete info: %+v", fi.Name, fi)
		}
		if !fi.Capabilities.Batch || !fi.Capabilities.Registry {
			t.Errorf("%s: every family serves batch detection and the registry: %+v", fi.Name, fi)
		}
		if want := fi.Name == lwmapi.FamilySched; fi.Capabilities.Robustness != want {
			t.Errorf("%s: robustness capability = %t", fi.Name, fi.Capabilities.Robustness)
		}
	}
}

// designTextFor builds a parseable design text for the family.
func designTextFor(t testing.TB, fam string) string {
	t.Helper()
	if fam == lwmapi.FamilyGcolor {
		g, err := gcolor.RandomGraph("family-test", 40, 15, 100)
		if err != nil {
			t.Fatal(err)
		}
		return gcolor.FormatGraph(g)
	}
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, designs.DAConverter()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// solutionTextFor produces the suspect solution for a marked design: the
// embed response's marked solution where the watermark lives in the
// solution (tmwm, gcolor), or a freshly computed schedule of the marked
// design for sched.
func solutionTextFor(t testing.TB, proto family.Protocol, resp *lwmapi.EmbedResponse) string {
	t.Helper()
	if resp.MarkedSolution != "" {
		return resp.MarkedSolution
	}
	d, err := proto.ParseDesign(resp.MarkedDesign)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := family.CDFG(d)
	if !ok {
		t.Fatal("sched design without a cdfg graph")
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sched.WriteSchedule(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLifecycleAllFamilies drives Normalize → ParseDesign → Embed →
// ParseSolution → Detect → Verify through every registered protocol: the
// embedded watermarks must be found and the true claim verified.
func TestLifecycleAllFamilies(t *testing.T) {
	ctx := context.Background()
	for _, fam := range family.Names() {
		t.Run(fam, func(t *testing.T) {
			proto, err := family.Lookup(fam)
			if err != nil {
				t.Fatal(err)
			}
			var params lwmapi.MarkParams
			proto.Normalize(&params)
			if params.N <= 0 || params.Tau <= 0 || params.K <= 0 {
				t.Fatalf("Normalize left zeros: %+v", params)
			}
			text := designTextFor(t, fam)
			d, err := proto.ParseDesign(text)
			if err != nil {
				t.Fatal(err)
			}
			if d.Family() != fam {
				t.Fatalf("design family %q", d.Family())
			}
			resp, err := proto.Embed(ctx, d.Clone(), "alice", params, 1)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Watermarks != params.N || len(resp.Records) != params.N {
				t.Fatalf("embedded %d watermarks, %d records (n=%d)",
					resp.Watermarks, len(resp.Records), params.N)
			}
			if resp.TemporalEdges <= 0 {
				t.Fatal("no constraints embedded")
			}

			// The suspect design follows the CLI contract: sched scans the
			// original design (the schedule carries the watermark and the
			// claim is re-derived on the unmarked graph); tmwm's marked
			// design is the original; gcolor's watermark lives in the
			// marked instance's extra edges.
			suspectText := resp.MarkedDesign
			if fam == lwmapi.FamilySched {
				suspectText = text
			}
			suspect, err := proto.ParseDesign(suspectText)
			if err != nil {
				t.Fatalf("suspect design unparseable: %v", err)
			}
			sol, err := proto.ParseSolution(suspect, solutionTextFor(t, proto, resp))
			if err != nil {
				t.Fatalf("marked solution unparseable: %v", err)
			}
			sp := family.Suspect{Design: suspect, Solution: sol}

			det, err := proto.Detect(ctx, []family.Suspect{sp}, resp.Records, 1)
			if err != nil {
				t.Fatal(err)
			}
			if det.Detected != len(resp.Records) {
				t.Fatalf("detected %d of %d", det.Detected, len(resp.Records))
			}
			for _, out := range det.Results[0] {
				if !out.Found || out.Error != "" {
					t.Fatalf("outcome: %+v", out)
				}
			}

			ver, err := proto.Verify(ctx, sp, "alice", params, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !ver.Verified {
				t.Fatalf("true claim not verified: %+v", ver)
			}
			// A false claim must not verify for the cdfg-backed families.
			// gcolor's record-free verification is intentionally weak at
			// small K — the root scan can land a re-derived rank pair on
			// separated vertices by coincidence, and the answer's Pc is
			// what quantifies that (10^-1.2 ≈ 6% here) — so the verdict
			// alone is only asserted where it discriminates.
			if fam != lwmapi.FamilyGcolor {
				wrong, err := proto.Verify(ctx, sp, "mallory", params, 1)
				if err != nil {
					t.Fatal(err)
				}
				if wrong.Verified {
					t.Fatalf("false claim verified: %+v", wrong)
				}
			}
		})
	}
}

// TestWorkerCountByteIdentity: every protocol's embed, detect, and
// verify answers are byte-identical (as server-encoded JSON) at any
// worker count — the determinism contract the daemon's concurrency
// settings rely on.
func TestWorkerCountByteIdentity(t *testing.T) {
	ctx := context.Background()
	encode := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, fam := range family.Names() {
		t.Run(fam, func(t *testing.T) {
			proto, err := family.Lookup(fam)
			if err != nil {
				t.Fatal(err)
			}
			var params lwmapi.MarkParams
			proto.Normalize(&params)
			text := designTextFor(t, fam)

			var embeds, detects, verifies []string
			for _, workers := range []int{1, 4} {
				d, err := proto.ParseDesign(text)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := proto.Embed(ctx, d, "alice", params, workers)
				if err != nil {
					t.Fatal(err)
				}
				embeds = append(embeds, encode(resp))

				marked, err := proto.ParseDesign(resp.MarkedDesign)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := proto.ParseSolution(marked, solutionTextFor(t, proto, resp))
				if err != nil {
					t.Fatal(err)
				}
				sp := family.Suspect{Design: marked, Solution: sol}
				det, err := proto.Detect(ctx, []family.Suspect{sp}, resp.Records, workers)
				if err != nil {
					t.Fatal(err)
				}
				detects = append(detects, encode(det))
				ver, err := proto.Verify(ctx, sp, "alice", params, workers)
				if err != nil {
					t.Fatal(err)
				}
				verifies = append(verifies, encode(ver))
			}
			if embeds[0] != embeds[1] {
				t.Errorf("embed differs by worker count:\n%s\n%s", embeds[0], embeds[1])
			}
			if detects[0] != detects[1] {
				t.Errorf("detect differs by worker count:\n%s\n%s", detects[0], detects[1])
			}
			if verifies[0] != verifies[1] {
				t.Errorf("verify differs by worker count:\n%s\n%s", verifies[0], verifies[1])
			}
		})
	}
}

// TestParseDesignRejectsCrossFamilyText: each family's parser refuses
// the other families' design texts instead of mis-reading them.
func TestParseDesignRejectsCrossFamilyText(t *testing.T) {
	cdfgText := designTextFor(t, lwmapi.FamilySched)
	gcolorText := designTextFor(t, lwmapi.FamilyGcolor)
	schedProto, _ := family.Lookup(lwmapi.FamilySched)
	gcolorProto, _ := family.Lookup(lwmapi.FamilyGcolor)
	if _, err := schedProto.ParseDesign(gcolorText); err == nil {
		t.Error("sched parsed a gcolor graph")
	}
	if _, err := gcolorProto.ParseDesign(cdfgText); err == nil {
		t.Error("gcolor parsed a cdfg design")
	}
}

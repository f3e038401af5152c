package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localwm/internal/gcolor"
	"localwm/lwmapi"
)

// gcolorDesignText builds a small deterministic coloring instance.
func gcolorDesignText(t *testing.T, seed string) string {
	t.Helper()
	g, err := gcolor.RandomGraph(seed, 16, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	return gcolor.FormatGraph(g)
}

func TestFamilySaltedRefs(t *testing.T) {
	s := mustOpen(t, Config{})
	text := chainDesign(3, "fam")

	// The same cdfg text registered under sched and tmwm yields two
	// distinct refs — refs are family-salted — and the sched ref equals
	// the legacy (pre-family) ref, so every reference minted before the
	// redesign still resolves.
	ds, created, err := s.PutOwnedFamily(lwmapi.FamilySched, "", text, 0, 0)
	if err != nil || !created {
		t.Fatalf("sched put: %v created=%t", err, created)
	}
	dt, created, err := s.PutOwnedFamily(lwmapi.FamilyTmwm, "", text, 0, 0)
	if err != nil || !created {
		t.Fatalf("tmwm put: %v created=%t", err, created)
	}
	if ds.Ref == dt.Ref {
		t.Fatal("sched and tmwm refs collide for the same text")
	}
	canonical, err := Canonicalize(text)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Ref != RefOf(canonical) {
		t.Fatalf("sched ref %s != legacy ref %s", ds.Ref, RefOf(canonical))
	}
	if ds.Family != lwmapi.FamilySched || dt.Family != lwmapi.FamilyTmwm {
		t.Fatalf("families: %q, %q", ds.Family, dt.Family)
	}

	// Legacy Put and PutOwned still mint the same sched refs.
	dp, created, err := s.Put(text)
	if err != nil {
		t.Fatal(err)
	}
	if created || dp.Ref != ds.Ref {
		t.Fatalf("legacy Put diverged: created=%t ref=%s", created, dp.Ref)
	}

	// Tenant ownership salts on top of the family.
	da, _, err := s.PutOwnedFamily(lwmapi.FamilyTmwm, "acme", text, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if da.Ref == dt.Ref {
		t.Fatal("tenant did not salt the tmwm ref")
	}
}

func TestFamilyDesignArtifacts(t *testing.T) {
	s := mustOpen(t, Config{})

	gtext := gcolorDesignText(t, "store")
	dg, _, err := s.PutOwnedFamily(lwmapi.FamilyGcolor, "", gtext, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Family != lwmapi.FamilyGcolor {
		t.Fatalf("family %q", dg.Family)
	}
	if dg.Graph != nil {
		t.Fatal("gcolor design has a cdfg graph")
	}
	if dg.Artifact == nil || dg.Artifact.Family() != lwmapi.FamilyGcolor {
		t.Fatal("gcolor design lost its artifact")
	}
	if dg.Nodes() != 16 {
		t.Fatalf("nodes %d", dg.Nodes())
	}
	// Canonical round-trip: the stored text is a fixed point.
	if dg.Text != dg.Artifact.Canonical() {
		t.Fatal("stored text is not the artifact's canonical text")
	}

	// cdfg-backed families keep the warmed Graph field for the engine.
	dt, _, err := s.PutOwnedFamily(lwmapi.FamilyTmwm, "", chainDesign(4, "art"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Graph == nil {
		t.Fatal("tmwm design has no cdfg graph")
	}

	// A cdfg text cannot register as gcolor, nor a gcolor text as sched.
	if _, _, err := s.PutOwnedFamily(lwmapi.FamilyGcolor, "", chainDesign(3, "bad"), 0, 0); err == nil {
		t.Fatal("cdfg text registered as gcolor")
	}
	if _, _, err := s.PutOwnedFamily(lwmapi.FamilySched, "", gtext, 0, 0); err == nil {
		t.Fatal("gcolor text registered as sched")
	}
	if _, _, err := s.PutOwnedFamily("nosuch", "", gtext, 0, 0); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestFamilyWALReplay: non-sched designs persist as putf records and
// reopen with family, artifact, and ref intact; sched designs keep the
// legacy record format on the same log.
func TestFamilyWALReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir}

	stext := chainDesign(3, "walfam")
	gtext := gcolorDesignText(t, "walfam")
	var schedRef, gcolorRef, tenantRef string
	{
		s := mustOpen(t, cfg)
		ds, _, err := s.PutOwnedFamily(lwmapi.FamilySched, "", stext, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		dg, _, err := s.PutOwnedFamily(lwmapi.FamilyGcolor, "", gtext, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		dten, _, err := s.PutOwnedFamily(lwmapi.FamilyGcolor, "acme", gtext, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		schedRef, gcolorRef, tenantRef = ds.Ref, dg.Ref, dten.Ref
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The log must carry the legacy record for sched (pre-family replayers
	// keep working) and putf records for the rest.
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "put "+schedRef) {
		t.Fatalf("sched design not logged with the legacy record:\n%s", raw)
	}
	if !strings.Contains(string(raw), "putf gcolor - "+gcolorRef) {
		t.Fatalf("gcolor design not logged as putf:\n%s", raw)
	}
	if !strings.Contains(string(raw), "putf gcolor acme "+tenantRef) {
		t.Fatalf("tenant gcolor design not logged as putf:\n%s", raw)
	}

	s2 := mustOpen(t, cfg)
	if got := s2.Len(); got != 3 {
		t.Fatalf("replayed %d designs, want 3", got)
	}
	ds, ok := s2.Get(schedRef)
	if !ok || ds.Family != lwmapi.FamilySched || ds.Graph == nil {
		t.Fatalf("sched design after replay: ok=%t %+v", ok, ds)
	}
	dg, ok := s2.Get(gcolorRef)
	if !ok || dg.Family != lwmapi.FamilyGcolor || dg.Artifact == nil {
		t.Fatalf("gcolor design after replay: ok=%t", ok)
	}
	if dg.Text != gcolorDesignText(t, "walfam") {
		t.Fatal("gcolor canonical text changed across replay")
	}
	if _, ok := s2.GetOwned("acme", tenantRef); !ok {
		t.Fatal("tenant gcolor design lost across replay")
	}
	// Cross-tenant and cross-family resolution still refuse.
	if _, ok := s2.GetOwned("other", tenantRef); ok {
		t.Fatal("tenant ref resolved for the wrong tenant")
	}
}

// TestFamilyWALCompaction: a tiny MaxWALBytes forces compaction on every
// put, so all designs live in the snapshot — whose putf records must
// preserve family labels across the rewrite and replay.
func TestFamilyWALCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxWALBytes: 1}
	var refs []string
	{
		s := mustOpen(t, cfg)
		for _, seed := range []string{"c1", "c2", "c3"} {
			d, _, err := s.PutOwnedFamily(lwmapi.FamilyGcolor, "", gcolorDesignText(t, seed), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, d.Ref)
		}
		if s.Counters().Compactions == 0 {
			t.Fatal("no compaction despite 1-byte log cap")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), "putf gcolor - ") {
		t.Fatalf("snapshot lost family labels:\n%s", snap)
	}
	s2 := mustOpen(t, cfg)
	for _, ref := range refs {
		d, ok := s2.Get(ref)
		if !ok || d.Family != lwmapi.FamilyGcolor {
			t.Fatalf("design %s after reopen: ok=%t", ref, ok)
		}
	}
}

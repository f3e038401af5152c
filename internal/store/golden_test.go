package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"localwm/lwmapi"
)

// goldenDir is a persisted store directory written by goldenPuts. Its
// snapshot and its log each hold every record head the store writes:
// put, putt, and putf with "-" and with a tenant, across sched, tmwm and
// gcolor. resident.txt lists the set it replays to, one "ref tenant|-
// family" line per design in put order.
const goldenDir = "testdata/golden"

var goldenFiles = []string{"wal.log", "snapshot"}

// goldenPuts runs the fixed put sequence behind goldenDir in dir. The
// first six designs go through a 1-byte log cap, so each put compacts
// and they end up in the snapshot; the next six stay in wal.log.
func goldenPuts(t *testing.T, dir string) []*Design {
	t.Helper()
	var out []*Design
	for phase, maxWAL := range []int64{1, 0} {
		s, err := Open(Config{Dir: dir, Shards: 1, MaxWALBytes: maxWAL})
		if err != nil {
			t.Fatal(err)
		}
		for _, tenant := range []string{"", "acme"} {
			seed := fmt.Sprintf("g%d%s", phase, tenant)
			for _, fam := range []string{lwmapi.FamilySched, lwmapi.FamilyTmwm, lwmapi.FamilyGcolor} {
				text := chainDesign(3+phase, seed)
				if fam == lwmapi.FamilyGcolor {
					text = gcolorDesignText(t, seed)
				}
				d, created, err := s.PutOwnedFamily(fam, tenant, text, 0, 0)
				if err != nil || !created {
					t.Fatalf("put %s/%q: created=%t err=%v", fam, tenant, created, err)
				}
				out = append(out, d)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// residentListing renders designs in resident.txt's format.
func residentListing(ds []*Design) string {
	var sb strings.Builder
	for _, d := range ds {
		tenant := d.Tenant
		if tenant == "" {
			tenant = "-"
		}
		fmt.Fprintf(&sb, "%s %s %s\n", d.Ref, tenant, d.Family)
	}
	return sb.String()
}

// copyGolden copies the golden store files into a fresh directory, so
// Open (which may heal a log in place) never writes to testdata.
func copyGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range goldenFiles {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestGoldenStoreReplays: the golden directory replays to exactly its
// recorded resident set, and replay leaves both files unchanged.
func TestGoldenStoreReplays(t *testing.T) {
	dir := copyGolden(t)
	s := mustOpen(t, Config{Dir: dir})
	want, err := os.ReadFile(filepath.Join(goldenDir, "resident.txt"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("bad resident.txt line %q", line)
		}
		ref, tenant, fam := f[0], f[1], f[2]
		if tenant == "-" {
			tenant = ""
		}
		d, ok := s.GetOwned(tenant, ref)
		if !ok {
			t.Fatalf("design %s (tenant %q) not replayed", ref, tenant)
		}
		if d.Family != fam || d.Tenant != tenant || RefOfFamily(fam, tenant, d.Text) != ref {
			t.Fatalf("design %s replayed as family %q tenant %q", ref, d.Family, d.Tenant)
		}
	}
	if s.Len() != len(lines) {
		t.Fatalf("replayed %d designs, want %d", s.Len(), len(lines))
	}
	for _, name := range goldenFiles {
		got, _ := os.ReadFile(filepath.Join(dir, name))
		orig, _ := os.ReadFile(filepath.Join(goldenDir, name))
		if !bytes.Equal(got, orig) {
			t.Fatalf("replay rewrote %s", name)
		}
	}
}

// TestGoldenStoreBytes: the golden put sequence writes the golden files
// byte for byte and mints the recorded refs.
func TestGoldenStoreBytes(t *testing.T) {
	dir := t.TempDir()
	ds := goldenPuts(t, dir)
	want, err := os.ReadFile(filepath.Join(goldenDir, "resident.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := residentListing(ds); got != string(want) {
		t.Fatalf("resident set:\n%s\nwant:\n%s", got, want)
	}
	for _, name := range goldenFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		orig, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("%s differs from the golden file (%d bytes, want %d)", name, len(got), len(orig))
		}
	}
}

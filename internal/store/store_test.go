package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// chainDesign builds a distinct valid design text: a chain of n
// constant multipliers between an input and an output. seed varies the
// node names so every (n, seed) pair is a different graph with a
// different ref.
func chainDesign(n int, seed string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "node src%s in\n", seed)
	prev := "src" + seed
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("a%s_%d", seed, i)
		fmt.Fprintf(&sb, "node %s cmul\n", name)
		fmt.Fprintf(&sb, "edge %s %s data\n", prev, name)
		prev = name
	}
	fmt.Fprintf(&sb, "node snk%s out\n", seed)
	fmt.Fprintf(&sb, "edge %s snk%s data\n", prev, seed)
	return sb.String()
}

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestContentAddressing(t *testing.T) {
	s := mustOpen(t, Config{})
	text := chainDesign(3, "x")
	d1, created, err := s.Put(text)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first put not created")
	}
	if !ValidRef(d1.Ref) {
		t.Fatalf("invalid ref %q", d1.Ref)
	}

	// The same graph dressed differently — comments, blank lines, extra
	// whitespace — must canonicalize to the same ref.
	dressed := "# a comment\n\n  " + strings.ReplaceAll(text, "\n", "\n\n") + "\n# trailing\n"
	d2, created, err := s.Put(dressed)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("equivalent text created a second entry")
	}
	if d2.Ref != d1.Ref {
		t.Fatalf("equivalent texts got refs %s and %s", d1.Ref, d2.Ref)
	}
	if d2.Graph != d1.Graph {
		t.Fatal("refreshed put returned a different graph instance")
	}

	// A genuinely different design gets a different ref.
	d3, _, err := s.Put(chainDesign(4, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Ref == d1.Ref {
		t.Fatal("different designs share a ref")
	}

	got, ok := s.Get(d1.Ref)
	if !ok || got.Ref != d1.Ref {
		t.Fatalf("Get(%s) = %v, %v", d1.Ref, got, ok)
	}
	if _, ok := s.Get(strings.Repeat("0", 64)); ok {
		t.Fatal("Get of unknown ref resolved")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 2 || c.Entries != 2 {
		t.Fatalf("counters = %+v", c)
	}

	// The cached graph is parsed and the oracle warmed: a critical-path
	// query must answer without error.
	if _, err := d1.Graph.Oracle().CriticalPathW(nil); err != nil {
		t.Fatal(err)
	}
	if d1.Nodes() != d1.Graph.Len() {
		t.Fatal("Nodes() disagrees with graph length")
	}
}

func TestCanonicalizeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "   \n", "node a add\nedge a b data\n", "nonsense"} {
		if _, err := Canonicalize(bad); err == nil {
			t.Fatalf("Canonicalize(%q) accepted", bad)
		}
	}
	s := mustOpen(t, Config{})
	if _, _, err := s.Put("not a design"); err == nil {
		t.Fatal("Put of garbage accepted")
	}
}

func TestValidRef(t *testing.T) {
	if !ValidRef(RefOf("x")) {
		t.Fatal("RefOf output not a valid ref")
	}
	for _, bad := range []string{"", "abc", strings.Repeat("G", 64), strings.Repeat("A", 64)} {
		if ValidRef(bad) {
			t.Fatalf("ValidRef(%q) = true", bad)
		}
	}
}

// TestLRUEviction pins the eviction order with a single shard: the
// least-recently-used design goes first, and a Get refreshes recency.
func TestLRUEviction(t *testing.T) {
	s := mustOpen(t, Config{Shards: 1, Capacity: 3})
	var refs []string
	for i := 0; i < 3; i++ {
		d, _, err := s.Put(chainDesign(i+2, "ev"))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, d.Ref)
	}
	// Touch the oldest so the middle one becomes the victim.
	if _, ok := s.Get(refs[0]); !ok {
		t.Fatal("refs[0] missing before capacity pressure")
	}
	d, _, err := s.Put(chainDesign(10, "ev"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(refs[1]); ok {
		t.Fatal("LRU victim survived")
	}
	for _, ref := range []string{refs[0], refs[2], d.Ref} {
		if _, ok := s.Get(ref); !ok {
			t.Fatalf("resident %s evicted out of order", ref)
		}
	}
	c := s.Counters()
	if c.Evictions != 1 || c.Entries != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

// TestConcurrentReadersUnderEviction hammers a tiny store from reader
// and writer goroutines at once — the -race run is the assertion that
// shard locking and the shared immutable Design entries hold up, and
// that resolved graphs stay queryable after their entry is evicted
// (copy-on-invalidate: eviction never mutates a handed-out Design).
func TestConcurrentReadersUnderEviction(t *testing.T) {
	s := mustOpen(t, Config{Shards: 4, Capacity: 8})
	const designs = 32
	texts := make([]string, designs)
	refs := make([]string, designs)
	for i := range texts {
		texts[i] = chainDesign(i%7+2, fmt.Sprintf("c%d", i))
		canon, err := Canonicalize(texts[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = RefOf(canon)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // writer: keeps churning the capacity
			defer wg.Done()
			for i := 0; i < designs; i++ {
				if _, _, err := s.Put(texts[(i+w*5)%designs]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) { // reader: resolves and queries shared graphs
			defer wg.Done()
			for i := 0; i < designs*2; i++ {
				if d, ok := s.Get(refs[(i*3+w)%designs]); ok {
					if _, err := d.Graph.Oracle().CriticalPathW(nil); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	c := s.Counters()
	if c.Entries > 8 {
		t.Fatalf("capacity exceeded: %d resident", c.Entries)
	}
	if c.Evictions == 0 {
		t.Fatal("no evictions under 4x capacity churn")
	}
}

func TestWALReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var refs []string
	var texts []string
	for i := 0; i < 5; i++ {
		text := chainDesign(i+2, "wal")
		d, created, err := s.Put(text)
		if err != nil {
			t.Fatal(err)
		}
		if !created {
			t.Fatal("fresh design not created")
		}
		refs = append(refs, d.Ref)
		texts = append(texts, d.Text)
	}
	if got := s.Counters().WALBytes; got == 0 {
		t.Fatal("no WAL growth after puts")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(chainDesign(99, "wal")); err == nil {
		t.Fatal("put after Close succeeded on a persistent store")
	}

	// Restart: every ref resolves to the identical canonical text, and
	// the traffic counters start cold.
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c := s2.Counters()
	if c.Hits != 0 || c.Misses != 0 || c.Puts != 0 {
		t.Fatalf("replayed store counters not cold: %+v", c)
	}
	if c.Entries != 5 {
		t.Fatalf("replayed %d entries, want 5", c.Entries)
	}
	for i, ref := range refs {
		d, ok := s2.Get(ref)
		if !ok {
			t.Fatalf("ref %s lost across restart", ref)
		}
		if d.Text != texts[i] {
			t.Fatalf("ref %s text changed across restart", ref)
		}
		if _, err := d.Graph.Oracle().CriticalPathW(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALReplayTornTail simulates a crash mid-append: a torn trailing
// record is dropped (and the log healed) while every whole record
// replays.
func TestWALReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := s.Put(chainDesign(3, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A record header promising more bytes than follow.
	if _, err := f.WriteString("put " + strings.Repeat("ab", 32) + " 5000\ntrunca"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if _, ok := s2.Get(d.Ref); !ok {
		t.Fatal("whole record lost with the torn tail")
	}
	if c := s2.Counters(); c.Entries != 1 {
		t.Fatalf("entries = %d, want 1", c.Entries)
	}
	// The heal must leave an appendable log: another put+restart works.
	d2, _, err := s2.Put(chainDesign(4, "torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	for _, ref := range []string{d.Ref, d2.Ref} {
		if _, ok := s3.Get(ref); !ok {
			t.Fatalf("ref %s lost after heal+append", ref)
		}
	}
}

// TestWALCompaction forces the size cap: the log must shrink back to
// its header after snapshotting, and a restart must still see exactly
// the resident set.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MaxWALBytes: 512, Shards: 1, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	var refs []string
	for i := 0; i < 12; i++ {
		d, _, err := s.Put(chainDesign(i+2, "cmp"))
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, d.Ref)
	}
	c := s.Counters()
	if c.Compactions == 0 {
		t.Fatal("no compactions despite tiny MaxWALBytes")
	}
	if c.WALBytes > 512+4096 {
		t.Fatalf("WAL grew unbounded: %d bytes", c.WALBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, Shards: 1, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The last capacity-many designs must be resident; older ones were
	// evicted before the snapshot and are legitimately gone.
	for _, ref := range refs[len(refs)-4:] {
		if _, ok := s2.Get(ref); !ok {
			t.Fatalf("recent ref %s lost across compaction+restart", ref)
		}
	}
	if c := s2.Counters(); c.Entries != 4 {
		t.Fatalf("entries = %d, want 4", c.Entries)
	}
}

// TestWALRejectsCorruptRecord: a bit-flip inside a record body fails
// the content hash and refuses to open rather than serving a wrong
// design under a right ref.
func TestWALRejectsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Put(chainDesign(3, "bad")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the record body (well past the header lines).
	i := len(data) - 10
	mut := append([]byte(nil), data...)
	if mut[i] == 'a' {
		mut[i] = 'b'
	} else {
		mut[i] = 'a'
	}
	if err := os.WriteFile(walPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("corrupt record body accepted")
	}
}

// TestWALReplayHugeRecordLength: a record head claiming more bytes than
// the log holds, up to the largest int64, is a torn tail: Open heals it
// instead of allocating for it.
func TestWALReplayHugeRecordLength(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	d, _, err := s.Put(chainDesign(3, "huge"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("put " + strings.Repeat("ab", 32) + " 9223372036854775807\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2 := mustOpen(t, Config{Dir: dir})
	if _, ok := s2.Get(d.Ref); !ok || s2.Len() != 1 {
		t.Fatalf("replay over a huge record length: ok=%t entries=%d", ok, s2.Len())
	}
}

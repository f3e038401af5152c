package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var (
	storeFiles = Files{Log: "wal.log", LogHeader: "lwmstore-wal v1", Snap: "snapshot", SnapHeader: "lwmstore-snap v1"}
	jobsFiles  = Files{Log: "jobs.wal", LogHeader: "lwmjobs-wal v1", Snap: "jobs.snap", SnapHeader: "lwmjobs-snap v1"}
)

// collect opens dir and returns the records it replays.
func collect(dir string, files Files) (*Log, []Record, error) {
	var recs []Record
	l, err := Open(dir, files, 1<<20, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	return l, recs, err
}

func writeFiles(t testing.TB, dir string, files Files, log, snap []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, files.Log), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := os.WriteFile(filepath.Join(dir, files.Snap), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayBoundsRecordLength: a record whose length claims more bytes
// than the file has left is torn — healed in the log, an error in the
// snapshot — and replay never allocates for it. The lengths include the
// largest int64, where a sum of offset and length would wrap.
func TestReplayBoundsRecordLength(t *testing.T) {
	whole := "lwmstore-wal v1\nput a 3\nabc\n"
	for _, n := range []int64{4, 1 << 32, math.MaxInt64 - 1, math.MaxInt64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := t.TempDir()
			torn := fmt.Sprintf("put b %d\nxyz\n", n)
			writeFiles(t, dir, storeFiles, []byte(whole+torn), nil)
			l, recs, err := collect(dir, storeFiles)
			if err != nil {
				t.Fatalf("log with an over-long record: %v", err)
			}
			l.Close()
			if len(recs) != 1 || recs[0] != (Record{Head: "put a", Body: "abc"}) {
				t.Fatalf("replayed %+v, want the one whole record", recs)
			}
			if got, _ := os.ReadFile(filepath.Join(dir, storeFiles.Log)); string(got) != whole {
				t.Fatalf("healed log %q, want %q", got, whole)
			}

			dir = t.TempDir()
			writeFiles(t, dir, storeFiles, nil, []byte("lwmstore-snap v1\n"+torn))
			if l, _, err := collect(dir, storeFiles); err == nil {
				l.Close()
				t.Fatal("snapshot with an over-long record accepted")
			}
		})
	}
}

// TestAppendAfterClose: appends to a closed log fail.
func TestAppendAfterClose(t *testing.T) {
	l, _, err := collect(t.TempDir(), storeFiles)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Head: "put a", Body: "abc"}, nil); err != errClosed {
		t.Fatalf("append after close: %v, want errClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// FuzzReplay opens arbitrary log and snapshot bytes. Open never panics;
// when it succeeds the log is a prefix of its input (just the header
// when the input was empty), and a second Open replays the same records
// without changing the log, so healing is idempotent.
func FuzzReplay(f *testing.F) {
	for _, seed := range []struct {
		dir  string
		jobs bool
	}{
		{"../store/testdata/golden", false},
		{"../jobs/testdata/golden", true},
	} {
		files := storeFiles
		if seed.jobs {
			files = jobsFiles
		}
		log, err := os.ReadFile(filepath.Join(seed.dir, files.Log))
		if err != nil {
			f.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(seed.dir, files.Snap))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.jobs, log, snap)
		f.Add(seed.jobs, log[:len(log)-7], []byte(nil))
	}
	f.Add(false, []byte("lwmstore-wal v1\nput "+strings.Repeat("ab", 32)+" 9223372036854775807\n"), []byte(nil))
	f.Add(true, []byte("lwmjobs-wal v1\nrec job "+strings.Repeat("cd", 32)+" 9223372036854775807\n"), []byte(nil))
	f.Add(false, []byte(nil), []byte("lwmstore-snap v1\n"))

	f.Fuzz(func(t *testing.T, jobs bool, log, snap []byte) {
		files := storeFiles
		if jobs {
			files = jobsFiles
		}
		dir := t.TempDir()
		if len(snap) == 0 {
			snap = nil // no snapshot file
		}
		writeFiles(t, dir, files, log, snap)
		l, recs, err := collect(dir, files)
		if err != nil {
			return
		}
		l.Close()
		healed, err := os.ReadFile(filepath.Join(dir, files.Log))
		if err != nil {
			t.Fatal(err)
		}
		if len(log) == 0 {
			if string(healed) != files.LogHeader+"\n" {
				t.Fatalf("empty log became %q", healed)
			}
		} else if !bytes.HasPrefix(log, healed) {
			t.Fatalf("log %q is not a prefix of its input %q", healed, log)
		}
		l, again, err := collect(dir, files)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		l.Close()
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("second open replayed %d records, first %d", len(again), len(recs))
		}
		if got, _ := os.ReadFile(filepath.Join(dir, files.Log)); !bytes.Equal(got, healed) {
			t.Fatalf("second open changed the log: %q -> %q", healed, got)
		}
	})
}

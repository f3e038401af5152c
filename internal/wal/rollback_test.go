//go:build linux

package wal

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// withFileSizeLimit runs fn with the process's file size limit
// (RLIMIT_FSIZE) lowered to n bytes: a write past it stops short and
// fails with EFBIG, as on a full disk. The Go runtime ignores SIGXFSZ.
// The limit is process-wide, so callers must not run in parallel.
func withFileSizeLimit(t *testing.T, n uint64, fn func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	lim.Cur = n
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// TestAppendRollsBackPartialWrite: an append that fails after part of
// its record reached the file cuts that part off again, so the next
// append lands on a record boundary and the log replays.
func TestAppendRollsBackPartialWrite(t *testing.T) {
	dir := t.TempDir()
	l, _, err := collect(dir, storeFiles)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	first := Record{Head: "put a", Body: "first"}
	if err := l.Append(first, nil); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	withFileSizeLimit(t, uint64(size)+40, func() {
		err = l.Append(Record{Head: "put b", Body: strings.Repeat("x", 100)}, nil)
	})
	if err == nil {
		t.Fatal("append past the file size limit succeeded")
	}
	st, err := os.Stat(filepath.Join(dir, storeFiles.Log))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != size || l.Size() != size {
		t.Fatalf("after the failed append: file %d bytes, Size %d, want %d", st.Size(), l.Size(), size)
	}
	third := Record{Head: "put c", Body: "third"}
	if err := l.Append(third, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := collect(dir, storeFiles)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	l2.Close()
	if len(recs) != 2 || recs[0] != first || recs[1] != third {
		t.Fatalf("replayed %+v, want the first and third records", recs)
	}
}

//go:build linux

package store

import (
	"syscall"
	"testing"
)

// withFileSizeLimit runs fn with the process's file size limit
// (RLIMIT_FSIZE) lowered to n bytes, so log appends past it fail with
// EFBIG. The Go runtime ignores SIGXFSZ. The limit is process-wide, so
// callers must not run in parallel.
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

// TestPutRetryAfterFailedAppend: a put whose log append fails leaves
// nothing resident, so a retry inserts and logs the design and it
// survives a restart.
func TestPutRetryAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	if _, _, err := s.Put(chainDesign(3, "kept")); err != nil {
		t.Fatal(err)
	}
	text := chainDesign(4, "retried")
	var err error
	withFileSizeLimit(t, uint64(s.Counters().WALBytes)+10, func() {
		_, _, err = s.Put(text)
	})
	if err == nil {
		t.Fatal("put past the file size limit succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("failed put left %d designs resident, want 1", s.Len())
	}
	d, created, err := s.Put(text)
	if err != nil || !created {
		t.Fatalf("retry: created=%t err=%v, want a fresh insert", created, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Config{Dir: dir})
	if _, ok := s2.Get(d.Ref); !ok {
		t.Fatal("retried design lost across restart")
	}
	if s2.Len() != 2 {
		t.Fatalf("replayed %d designs, want 2", s2.Len())
	}
}

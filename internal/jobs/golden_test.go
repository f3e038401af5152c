package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"localwm/internal/wal"
)

// goldenDir is a persisted jobs directory written by writeGolden.
// jobs.snap holds three job records; jobs.wal holds a job record and
// state, hook and drop records. jobs.json lists the jobs they replay to.
const goldenDir = "testdata/golden"

var goldenFiles = []string{"jobs.wal", "jobs.snap"}

type goldenRecord struct {
	kind, body string
}

// goldenSnap and goldenLog are the record bodies behind goldenDir. Job
// IDs and timestamps are fixed here; a live manager draws them at
// random.
var (
	goldenSnap = []string{
		`{"id":"j-alpha","kind":"embed","payload":{"n":1},"max_attempts":3,"trace_id":"job-j-alpha","created_unix_nano":100,"state":"done","attempt":1,"result":"eyJvayI6dHJ1ZX0=","updated_unix_nano":110}`,
		`{"id":"j-beta","tenant":"acme","kind":"detect","payload":{"n":2},"idempotency_key":"k-beta","max_attempts":3,"trace_id":"tr-beta","created_unix_nano":200,"state":"queued","attempt":0,"updated_unix_nano":200}`,
		`{"id":"j-gamma","kind":"verify","payload":{"n":3},"webhook_url":"http://127.0.0.1:9/hook","max_attempts":1,"trace_id":"job-j-gamma","created_unix_nano":300,"state":"failed","attempt":1,"error":"boom","updated_unix_nano":310}`,
	}
	goldenLog = []goldenRecord{
		{recKindJob, `{"id":"j-delta","kind":"embed","payload":{"n":4},"max_attempts":3,"trace_id":"job-j-delta","created_unix_nano":400,"state":"queued","attempt":0,"updated_unix_nano":400}`},
		{recKindState, `{"id":"j-delta","state":"running","attempt":1,"updated_unix_nano":410}`},
		{recKindState, `{"id":"j-delta","state":"done","attempt":1,"result":"eyJkZWx0YSI6MX0=","updated_unix_nano":420}`},
		{recKindHook, `{"id":"j-gamma","attempts":2,"delivered":true}`},
		{recKindDrop, `{"id":"j-alpha"}`},
		{recKindState, `{"id":"j-beta","state":"running","attempt":1,"updated_unix_nano":430}`},
	}
)

// writeGolden writes goldenSnap through a compaction and goldenLog as
// plain appends, in dir.
func writeGolden(t *testing.T, dir string) {
	t.Helper()
	skip := func(wal.Record) error { return nil }
	l, err := wal.Open(dir, walFiles, 1, skip)
	if err != nil {
		t.Fatal(err)
	}
	snap := func() []wal.Record {
		recs := make([]wal.Record, len(goldenSnap))
		for i, s := range goldenSnap {
			recs[i] = jobRecord(recKindJob, []byte(s))
		}
		return recs
	}
	if err := l.Append(jobRecord(recKindJob, []byte(goldenSnap[0])), snap); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = wal.Open(dir, walFiles, 8<<20, skip)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range goldenLog {
		if err := l.Append(jobRecord(r.kind, []byte(r.body)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenJobsReplay: the golden directory replays to the recorded
// jobs (the orphaned running job demoted to queued, the dropped job
// gone), and replay leaves both files unchanged.
func TestGoldenJobsReplay(t *testing.T) {
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
	m, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	raw, err := os.ReadFile(filepath.Join(goldenDir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []Job
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, w := range want {
		got, ok := m.Get(w.ID)
		if !ok {
			t.Fatalf("job %s not replayed", w.ID)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(w)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("job %s replayed as\n%s\nwant\n%s", w.ID, gotJSON, wantJSON)
		}
	}
	if c := m.Counters(); c.Jobs != int64(len(want)) || c.Queued != 1 {
		t.Fatalf("replayed %d jobs (%d queued), want %d (1 queued)", c.Jobs, c.Queued, len(want))
	}
	if _, ok := m.Get("j-alpha"); ok {
		t.Fatal("dropped job j-alpha replayed")
	}
	for _, name := range goldenFiles {
		got, _ := os.ReadFile(filepath.Join(dir, name))
		orig, _ := os.ReadFile(filepath.Join(goldenDir, name))
		if !bytes.Equal(got, orig) {
			t.Fatalf("replay rewrote %s", name)
		}
	}
}

// TestGoldenJobsBytes: the golden record bodies frame into the golden
// files byte for byte.
func TestGoldenJobsBytes(t *testing.T) {
	dir := t.TempDir()
	writeGolden(t, dir)
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

package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fastRetry returns a fresh millisecond-scale policy so retry-heavy
// tests finish instantly. Fresh per call: a RetryPolicy carries PRNG
// state and must not be shared across managers under test.
func fastRetry() *RetryPolicy {
	return &RetryPolicy{Base: time.Millisecond, Cap: 2 * time.Millisecond, Seed: 5}
}

// echoExec is the trivial executor: the result is the payload bytes.
func echoExec(_ context.Context, _ string, payload json.RawMessage) ([]byte, error) {
	return append([]byte(nil), payload...), nil
}

func waitTerminal(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	since := 0
	for {
		j, v, err := m.Wait(ctx, id, since)
		if err != nil {
			t.Fatalf("waiting for job %s: %v", id, err)
		}
		if j.Terminal() {
			return j
		}
		since = v
	}
}

func mustSubmit(t *testing.T, m *Manager, s Submission) *Job {
	t.Helper()
	if s.Payload == nil {
		s.Payload = json.RawMessage(`{"n":1}`)
	}
	if s.Kind == "" {
		s.Kind = "embed"
	}
	j, _, err := m.Submit(s)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

func TestManagerLifecycleDone(t *testing.T) {
	m, err := Open(Config{Workers: 2, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	m.Start(echoExec)

	payload := json.RawMessage(`{"design":"x"}`)
	j := mustSubmit(t, m, Submission{Kind: "embed", Payload: payload})
	if j.State != StateQueued || j.Attempt != 0 {
		t.Fatalf("fresh job state %s attempt %d, want queued/0", j.State, j.Attempt)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateDone {
		t.Fatalf("job state %s (err %q), want done", got.State, got.Error)
	}
	if got.Attempt != 1 {
		t.Fatalf("attempt %d, want 1", got.Attempt)
	}
	if !bytes.Equal(got.Result, payload) {
		t.Fatalf("result %q, want the payload back", got.Result)
	}
	c := m.Counters()
	if c.Submitted != 1 || c.Completed != 1 || c.Failed != 0 || c.Retries != 0 {
		t.Fatalf("counters %+v, want 1 submitted, 1 completed", c)
	}
}

// TestManagerTransientRetries checks a flaky executor is retried under
// the budget and the attempt count lands where the flake clears.
func TestManagerTransientRetries(t *testing.T) {
	m, err := Open(Config{Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	var mu sync.Mutex
	calls := 0
	m.Start(func(_ context.Context, _ string, payload json.RawMessage) ([]byte, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n < 3 {
			return nil, errors.New("transient flake")
		}
		return payload, nil
	})

	j := mustSubmit(t, m, Submission{MaxAttempts: 5})
	got := waitTerminal(t, m, j.ID)
	if got.State != StateDone || got.Attempt != 3 {
		t.Fatalf("state %s attempt %d, want done on attempt 3", got.State, got.Attempt)
	}
	if c := m.Counters(); c.Retries != 2 {
		t.Fatalf("retries counter %d, want 2", c.Retries)
	}
}

// TestManagerRetryBudgetExhausted checks an always-failing transient
// executor burns exactly MaxAttempts attempts and lands failed.
func TestManagerRetryBudgetExhausted(t *testing.T) {
	m, err := Open(Config{Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	m.Start(func(context.Context, string, json.RawMessage) ([]byte, error) {
		return nil, errors.New("always down")
	})

	j := mustSubmit(t, m, Submission{MaxAttempts: 3})
	got := waitTerminal(t, m, j.ID)
	if got.State != StateFailed || got.Attempt != 3 {
		t.Fatalf("state %s attempt %d, want failed on attempt 3", got.State, got.Attempt)
	}
	if got.Error == "" {
		t.Fatal("failed job carries no error")
	}
	c := m.Counters()
	if c.Failed != 1 || c.Retries != 2 {
		t.Fatalf("counters %+v, want 1 failed, 2 retries", c)
	}
}

// TestManagerPermanentFailsImmediately checks a Permanent-wrapped error
// skips the retry schedule entirely.
func TestManagerPermanentFailsImmediately(t *testing.T) {
	m, err := Open(Config{Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	m.Start(func(context.Context, string, json.RawMessage) ([]byte, error) {
		return nil, Permanent(errors.New("unknown design ref"))
	})

	j := mustSubmit(t, m, Submission{MaxAttempts: 5})
	got := waitTerminal(t, m, j.ID)
	if got.State != StateFailed || got.Attempt != 1 {
		t.Fatalf("state %s attempt %d, want failed on first attempt", got.State, got.Attempt)
	}
	if c := m.Counters(); c.Retries != 0 {
		t.Fatalf("retries counter %d, want 0", c.Retries)
	}
}

// TestManagerExecutorPanicFailsJob: an executor panic fails that job
// permanently, naming the panic, and the worker goes on to run the next
// job; Close still returns.
func TestManagerExecutorPanicFailsJob(t *testing.T) {
	m, err := Open(Config{Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(func(_ context.Context, kind string, payload json.RawMessage) ([]byte, error) {
		if kind == "detect" {
			panic("index out of range [-1]")
		}
		return echoExec(context.Background(), kind, payload)
	})

	bad := mustSubmit(t, m, Submission{Kind: "detect", MaxAttempts: 3})
	good := mustSubmit(t, m, Submission{Kind: "embed"})
	got := waitTerminal(t, m, bad.ID)
	if got.State != StateFailed || got.Attempt != 1 || !strings.Contains(got.Error, "index out of range [-1]") {
		t.Fatalf("panicking job: state %s attempt %d error %q, want failed on attempt 1 naming the panic",
			got.State, got.Attempt, got.Error)
	}
	if got := waitTerminal(t, m, good.ID); got.State != StateDone {
		t.Fatalf("job after the panic: state %s (err %q), want done", got.State, got.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestManagerIdempotencyDedup(t *testing.T) {
	m, err := Open(Config{Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	m.Start(echoExec)

	a, created, err := m.Submit(Submission{Kind: "embed", Payload: json.RawMessage(`{}`), IdempotencyKey: "k1"})
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	b, created, err := m.Submit(Submission{Kind: "embed", Payload: json.RawMessage(`{}`), IdempotencyKey: "k1"})
	if err != nil || created {
		t.Fatalf("second submit: created=%v err=%v, want dedup", created, err)
	}
	if a.ID != b.ID {
		t.Fatalf("dedup answered job %s, want %s", b.ID, a.ID)
	}
	if c := m.Counters(); c.Submitted != 1 || c.Deduped != 1 {
		t.Fatalf("counters %+v, want 1 submitted, 1 deduped", c)
	}
}

func TestManagerBacklogFull(t *testing.T) {
	m, err := Open(Config{Workers: 1, MaxQueued: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	running := make(chan struct{}, 1)
	release := make(chan struct{})
	m.Start(func(context.Context, string, json.RawMessage) ([]byte, error) {
		select {
		case running <- struct{}{}:
		default:
		}
		<-release
		return json.RawMessage(`{}`), nil
	})

	j1 := mustSubmit(t, m, Submission{})
	<-running // j1 occupies the lone worker; the queue is empty again
	j2 := mustSubmit(t, m, Submission{})
	if _, _, err := m.Submit(Submission{Kind: "embed", Payload: json.RawMessage(`{}`)}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("third submit err %v, want ErrBacklogFull", err)
	}
	close(release)
	waitTerminal(t, m, j1.ID)
	waitTerminal(t, m, j2.ID)
}

func TestManagerSubmitAfterClose(t *testing.T) {
	m, err := Open(Config{Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(echoExec)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(Submission{Kind: "embed", Payload: json.RawMessage(`{}`)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close err %v, want ErrClosed", err)
	}
}

// TestManagerPersistence drains jobs to disk, closes, reopens, and
// checks states, results, and the idempotency index all survived.
func TestManagerPersistence(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(echoExec)
	payload := json.RawMessage(`{"design":"persisted"}`)
	a := mustSubmit(t, m1, Submission{Payload: payload, IdempotencyKey: "stable"})
	b := mustSubmit(t, m1, Submission{})
	waitTerminal(t, m1, a.ID)
	waitTerminal(t, m1, b.ID)
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, Retry: fastRetry()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close(context.Background())
	got, ok := m2.Get(a.ID)
	if !ok {
		t.Fatalf("job %s lost across reopen", a.ID)
	}
	if got.State != StateDone || !bytes.Equal(got.Result, payload) {
		t.Fatalf("replayed job state %s result %q, want done with original payload", got.State, got.Result)
	}
	if _, ok := m2.Get(b.ID); !ok {
		t.Fatalf("job %s lost across reopen", b.ID)
	}
	// The idempotency index replays too: a resubmit dedupes, not re-runs.
	dup, created, err := m2.Submit(Submission{Kind: "embed", Payload: payload, IdempotencyKey: "stable"})
	if err != nil || created || dup.ID != a.ID {
		t.Fatalf("resubmit after reopen: id=%s created=%v err=%v, want dedup to %s", dup.ID, created, err, a.ID)
	}
}

// TestManagerKillRecovery is the in-process crash simulation: Kill while
// one job is mid-attempt and another is queued, reopen the same
// directory, and check nothing is lost — the orphaned running job is
// demoted to queued (attempt count standing) and both converge to done
// under a working executor.
func TestManagerKillRecovery(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	m1.Start(func(ctx context.Context, _ string, _ json.RawMessage) ([]byte, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done() // the attempt dies with the daemon
		return nil, ctx.Err()
	})
	j1 := mustSubmit(t, m1, Submission{Payload: json.RawMessage(`{"job":"first"}`)})
	j2 := mustSubmit(t, m1, Submission{Payload: json.RawMessage(`{"job":"second"}`)})
	<-started // j1 is running, j2 queued
	m1.Kill()

	m2, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	defer m2.Close(context.Background())
	g1, ok := m2.Get(j1.ID)
	if !ok {
		t.Fatalf("running job %s lost by the crash", j1.ID)
	}
	if g1.State != StateQueued || g1.Attempt != 1 {
		t.Fatalf("crashed running job: state %s attempt %d, want queued/1 (demoted, attempt standing)", g1.State, g1.Attempt)
	}
	g2, ok := m2.Get(j2.ID)
	if !ok {
		t.Fatalf("queued job %s lost by the crash", j2.ID)
	}
	if g2.State != StateQueued || g2.Attempt != 0 {
		t.Fatalf("crashed queued job: state %s attempt %d, want queued/0", g2.State, g2.Attempt)
	}

	m2.Start(echoExec)
	r1 := waitTerminal(t, m2, j1.ID)
	r2 := waitTerminal(t, m2, j2.ID)
	if r1.State != StateDone || r1.Attempt != 2 {
		t.Fatalf("recovered job: state %s attempt %d, want done on attempt 2", r1.State, r1.Attempt)
	}
	if r2.State != StateDone || r2.Attempt != 1 {
		t.Fatalf("recovered queued job: state %s attempt %d, want done on attempt 1", r2.State, r2.Attempt)
	}
	if !bytes.Equal(r1.Result, []byte(`{"job":"first"}`)) {
		t.Fatalf("recovered result %q, want original payload", r1.Result)
	}
}

// TestManagerTornTailHealing appends a torn record (a crash mid-append)
// to the log and checks reopen heals it: the whole records replay, the
// tail is truncated, and subsequent appends land cleanly.
func TestManagerTornTailHealing(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(echoExec)
	j := mustSubmit(t, m1, Submission{})
	waitTerminal(t, m1, j.ID)
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "jobs.wal")
	healthy, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A record header promising 999 body bytes that never arrived.
	if _, err := f.WriteString("rec state deadbeef 999\n{\"id\":\"j-torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	got, ok := m2.Get(j.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("job lost or regressed after healing: ok=%v state=%v", ok, got)
	}
	healed, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, healthy) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(healed), len(healthy))
	}
	// The healed log accepts appends: run one more job through it.
	m2.Start(echoExec)
	j2 := mustSubmit(t, m2, Submission{})
	waitTerminal(t, m2, j2.ID)
	if err := m2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	m3, err := Open(Config{Dir: dir, Retry: fastRetry()})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer m3.Close(context.Background())
	for _, id := range []string{j.ID, j2.ID} {
		if got, ok := m3.Get(id); !ok || got.State != StateDone {
			t.Fatalf("job %s: ok=%v after post-heal append cycle", id, ok)
		}
	}
}

// TestManagerCompaction shrinks the WAL budget so compaction triggers,
// then checks the snapshot+log pair still replays every job.
func TestManagerCompaction(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, MaxWALBytes: 512, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(echoExec)
	var ids []string
	var payloads []json.RawMessage
	for i := 0; i < 6; i++ {
		p := json.RawMessage(fmt.Sprintf(`{"design":"compact-%d"}`, i))
		j := mustSubmit(t, m1, Submission{Payload: p})
		waitTerminal(t, m1, j.ID)
		ids = append(ids, j.ID)
		payloads = append(payloads, p)
	}
	c := m1.Counters()
	if c.Compactions == 0 {
		t.Fatalf("no compactions under a 512-byte WAL budget (wal %d bytes)", c.WALBytes)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs.snap")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	m2, err := Open(Config{Dir: dir, Retry: fastRetry()})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer m2.Close(context.Background())
	for i, id := range ids {
		got, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost by compaction", id)
		}
		if got.State != StateDone || !bytes.Equal(got.Result, payloads[i]) {
			t.Fatalf("job %s: state %s result %q, want done with %q", id, got.State, got.Result, payloads[i])
		}
	}
}

// TestManagerRetentionEviction bounds retained terminal jobs and checks
// eviction is durable across a reopen.
func TestManagerRetentionEviction(t *testing.T) {
	dir := t.TempDir()
	m1, err := Open(Config{Dir: dir, Workers: 1, Retention: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(echoExec)
	var ids []string
	for i := 0; i < 3; i++ {
		j := mustSubmit(t, m1, Submission{})
		waitTerminal(t, m1, j.ID)
		ids = append(ids, j.ID)
	}
	c := m1.Counters()
	if c.Evictions != 2 || c.Jobs != 1 {
		t.Fatalf("counters %+v, want 2 evictions, 1 resident", c)
	}
	if _, ok := m1.Get(ids[0]); ok {
		t.Fatalf("oldest job %s survived retention 1", ids[0])
	}
	if _, ok := m1.Get(ids[2]); !ok {
		t.Fatalf("newest job %s evicted", ids[2])
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, Retention: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	if _, ok := m2.Get(ids[0]); ok {
		t.Fatalf("evicted job %s resurrected by replay", ids[0])
	}
	if _, ok := m2.Get(ids[2]); !ok {
		t.Fatalf("retained job %s lost by replay", ids[2])
	}
}

// hookReceiver is a webhook endpoint that dedupes on the idempotency
// key, the discipline the at-least-once contract asks of receivers.
type hookReceiver struct {
	mu     sync.Mutex
	total  int
	dups   int
	keys   []string
	seen   map[string]bool
	secret string
	badSig int
}

func (h *hookReceiver) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, 0, 512)
		buf := make([]byte, 512)
		for {
			n, err := r.Body.Read(buf)
			body = append(body, buf[:n]...)
			if err != nil {
				break
			}
		}
		key := r.Header.Get("X-Lwm-Idempotency-Key")
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.seen == nil {
			h.seen = make(map[string]bool)
		}
		h.total++
		h.keys = append(h.keys, key)
		if !VerifyWebhook(h.secret, key, body, r.Header.Get("X-Lwm-Webhook-Signature")) {
			h.badSig++
		}
		if h.seen[key] {
			h.dups++ // duplicate delivery: ack it, change nothing
		}
		h.seen[key] = true
		w.WriteHeader(http.StatusOK)
	}
}

func waitDelivered(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := m.Get(id); ok && j.WebhookDelivered {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s webhook never marked delivered", id)
}

// TestManagerWebhookRedeliveryIdempotent simulates the crash window the
// at-least-once contract exists for: the daemon dies after the webhook
// POST succeeded but before its hook record landed in the WAL. The next
// Open re-delivers; the receiver sees the same idempotency key and the
// same verifiable signature, so its dedup absorbs the duplicate. A
// further reopen (hook record present) delivers nothing.
func TestManagerWebhookRedeliveryIdempotent(t *testing.T) {
	const secret = "hook-secret"
	recv := &hookReceiver{secret: secret}
	ts := httptest.NewServer(recv.handler())
	defer ts.Close()

	dir := t.TempDir()
	webhookCfg := func() WebhookConfig {
		return WebhookConfig{Secret: secret, Retry: fastRetry(), HTTPClient: ts.Client()}
	}
	m1, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry(), Webhook: webhookCfg()})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start(echoExec)
	j := mustSubmit(t, m1, Submission{WebhookURL: ts.URL})
	waitTerminal(t, m1, j.ID)
	waitDelivered(t, m1, j.ID)
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Crash simulation: strip the hook record off the log, as if the
	// daemon died between the POST and its WAL append.
	walPath := filepath.Join(dir, "jobs.wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, []byte("rec hook"))
	if idx < 0 {
		t.Fatal("no hook record in the WAL to strip")
	}
	if err := os.Truncate(walPath, int64(idx)); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry(), Webhook: webhookCfg()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	waitDelivered(t, m2, j.ID)
	if err := m2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	recv.mu.Lock()
	total, dups, badSig, keys := recv.total, recv.dups, recv.badSig, append([]string(nil), recv.keys...)
	recv.mu.Unlock()
	if total != 2 {
		t.Fatalf("receiver saw %d deliveries, want 2 (original + redelivery)", total)
	}
	if dups != 1 {
		t.Fatalf("receiver deduped %d deliveries, want 1", dups)
	}
	if badSig != 0 {
		t.Fatalf("%d deliveries failed signature verification", badSig)
	}
	wantKey := WebhookIdempotencyKey(j.ID, StateDone)
	for i, k := range keys {
		if k != wantKey {
			t.Fatalf("delivery %d key %q, want %q", i, k, wantKey)
		}
	}

	// With the hook record re-recorded, a third open delivers nothing.
	m3, err := Open(Config{Dir: dir, Workers: 1, Retry: fastRetry(), Webhook: webhookCfg()})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // would-be redelivery window
	if err := m3.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	recv.mu.Lock()
	finalTotal := recv.total
	recv.mu.Unlock()
	if finalTotal != 2 {
		t.Fatalf("receiver saw %d deliveries after third open, want still 2", finalTotal)
	}
}

// TestManagerWaitVersionCursor checks Wait parks until a transition
// moves the version past the caller's cursor.
func TestManagerWaitVersionCursor(t *testing.T) {
	m, err := Open(Config{Workers: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	release := make(chan struct{})
	m.Start(func(context.Context, string, json.RawMessage) ([]byte, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})

	j := mustSubmit(t, m, Submission{})
	_, v0, ok := m.GetVersion(j.ID)
	if !ok {
		t.Fatal("job missing")
	}

	type waitResult struct {
		job *Job
		v   int
		err error
	}
	done := make(chan waitResult, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Park past the queued→running transition too, if it already
		// happened: loop like a long-poller would.
		since := v0
		for {
			job, v, err := m.Wait(ctx, j.ID, since)
			if err != nil || job.Terminal() {
				done <- waitResult{job, v, err}
				return
			}
			since = v
		}
	}()

	select {
	case r := <-done:
		t.Fatalf("Wait returned before any transition: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatalf("Wait: %v", r.err)
	}
	if r.job.State != StateDone {
		t.Fatalf("Wait returned state %s, want done", r.job.State)
	}
	if r.v <= v0 {
		t.Fatalf("version did not advance: %d → %d", v0, r.v)
	}

	// Unknown IDs answer ErrNotFound.
	if _, _, err := m.Wait(context.Background(), "j-nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Wait on unknown id: %v, want ErrNotFound", err)
	}
}

// TestSubmitSurvivesCompaction: a submission whose own record takes
// the log past its cap is in the snapshot that compaction writes, so
// it survives a restart.
func TestSubmitSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, MaxWALBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	big := json.RawMessage(`{"design":"` + string(bytes.Repeat([]byte("x"), 300)) + `"}`)
	j := mustSubmit(t, m, Submission{Payload: big})
	if c := m.Counters(); c.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", c.Compactions)
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	if got, ok := m2.Get(j.ID); !ok || got.State != StateQueued {
		t.Fatalf("submitted job after restart: ok=%t", ok)
	}
}

// TestEvictionSurvivesCompaction: a retention eviction whose drop
// record takes the log past its cap leaves the evicted job out of the
// snapshot that compaction writes, so it stays gone after a restart.
func TestEvictionSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{Dir: dir, Workers: 1, Retention: 1, MaxWALBytes: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(echoExec)
	j1 := mustSubmit(t, m, Submission{})
	waitTerminal(t, m, j1.ID)
	j2 := mustSubmit(t, m, Submission{})
	waitTerminal(t, m, j2.ID)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(Config{Dir: dir, Retention: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	if _, ok := m2.Get(j1.ID); ok {
		t.Fatalf("evicted job %s is back after restart", j1.ID)
	}
	if _, ok := m2.Get(j2.ID); !ok {
		t.Fatalf("retained job %s lost", j2.ID)
	}
}

package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"localwm/internal/obs"
	"localwm/internal/wal"
)

// Manager errors, mapped to HTTP statuses by the server.
var (
	// ErrNotFound means the job ID never resolved — never submitted, or
	// evicted by terminal-job retention (HTTP 404).
	ErrNotFound = errors.New("jobs: job not found")
	// ErrBacklogFull means the queued-job backlog is at capacity; the
	// submitter should retry after backing off (HTTP 429).
	ErrBacklogFull = errors.New("jobs: backlog full")
	// ErrTenantBacklogFull means the submitting tenant's own backlog
	// bound is exhausted while the global backlog still has room; the
	// server maps it to 429 tenant_rate_limited (one caller's throttle,
	// not daemon-wide pressure).
	ErrTenantBacklogFull = errors.New("jobs: tenant backlog full")
	// ErrClosed means the manager no longer accepts submissions because
	// the daemon is shutting down (HTTP 503).
	ErrClosed = errors.New("jobs: closed, not accepting work")
)

// ExecFunc runs one job attempt: kind is an lwmapi.JobKind* constant and
// payload the synchronous endpoint's request envelope. On success it
// returns the exact response body the synchronous endpoint would have
// written. A definite failure (malformed payload, unresolvable ref) is
// returned wrapped in Permanent; a plain error is treated as transient
// and retried under the job's budget.
type ExecFunc func(ctx context.Context, kind string, payload json.RawMessage) ([]byte, error)

// Config sizes the manager. The zero value (plus Exec) is a usable
// in-memory manager with the documented defaults.
type Config struct {
	// Dir, when non-empty, persists jobs under this directory (jobs.wal
	// + jobs.snap). Empty keeps jobs in memory only.
	Dir string
	// Workers is the number of concurrent job executions. Zero
	// defaults to 2.
	Workers int
	// MaxQueued bounds the queued-job backlog; submissions beyond it are
	// rejected with ErrBacklogFull. Zero defaults to 256.
	MaxQueued int
	// DefaultMaxAttempts is the retry budget of jobs that don't pick
	// their own. Zero defaults to 3.
	DefaultMaxAttempts int
	// MaxAttemptsCap clamps job-supplied budgets. Zero defaults to 10.
	MaxAttemptsCap int
	// Retry schedules the delay between execution attempts (capped
	// full-jitter backoff; see RetryPolicy). Nil takes the policy
	// defaults with seed 1.
	Retry *RetryPolicy
	// Webhook parameterizes terminal-status push delivery.
	Webhook WebhookConfig
	// SecretFor, when non-nil, resolves a tenant's webhook signing secret
	// at delivery time (so a SIGHUP-rotated secret signs the very next
	// push). An empty return falls back to Webhook.Secret. Only the
	// tenant ID is persisted with the job — secrets never touch the WAL.
	SecretFor func(tenant string) string
	// Retention bounds retained terminal jobs: beyond it the oldest are
	// evicted (a drop record makes the eviction durable). Zero defaults
	// to 4096.
	Retention int
	// MaxWALBytes caps the write-ahead log before snapshot compaction.
	// Zero defaults to 8 MiB.
	MaxWALBytes int64
	// Logger, when non-nil, receives one structured line per job state
	// transition (msg="job") and webhook delivery outcome
	// (msg="webhook"), each carrying the job ID and its job-linked trace
	// ID. Nil logs nothing.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.DefaultMaxAttempts <= 0 {
		c.DefaultMaxAttempts = 3
	}
	if c.MaxAttemptsCap <= 0 {
		c.MaxAttemptsCap = 10
	}
	if c.Retention <= 0 {
		c.Retention = 4096
	}
	if c.MaxWALBytes <= 0 {
		c.MaxWALBytes = 8 << 20
	}
	if c.Retry == nil {
		c.Retry = &RetryPolicy{}
	}
	c.Webhook = c.Webhook.withDefaults()
	return c
}

// Counters is a snapshot of a Manager's cumulative activity. Monotonic
// except the gauges (Queued, Running, Jobs, WALBytes).
type Counters struct {
	Submitted         uint64 // jobs created (dedup hits excluded)
	Deduped           uint64 // submissions answered by an existing job
	Completed         uint64 // jobs that reached done
	Failed            uint64 // jobs that reached failed
	Retries           uint64 // execution attempts beyond each job's first
	WebhookDeliveries uint64 // webhook pushes acknowledged 2xx
	WebhookFailures   uint64 // webhook pushes abandoned after retries
	Evictions         uint64 // terminal jobs dropped by retention
	Compactions       uint64 // WAL snapshot+truncate cycles
	Queued            int64  // jobs currently queued (gauge)
	Running           int64  // jobs currently executing (gauge)
	Jobs              int64  // jobs resident, any state (gauge)
	WALBytes          int64  // current WAL size (0 when in-memory)
}

// tracked is one resident job with its change-notification state.
type tracked struct {
	job     *Job
	version int           // bumped on every transition
	changed chan struct{} // closed and replaced on every transition
}

// Submission is one job submit, already validated against the wire
// contract (the server checks kind/payload pairing via
// lwmapi.ValidJobPayload before calling Submit).
type Submission struct {
	Kind           string
	Payload        json.RawMessage
	WebhookURL     string
	IdempotencyKey string
	MaxAttempts    int
	// Tenant is the submitting tenant's ID ("" = anonymous); it scopes
	// job visibility, backlog accounting, and webhook-secret selection.
	Tenant string
	// MaxBacklog, when positive, bounds how many of Tenant's jobs may be
	// queued at once; beyond it Submit returns ErrTenantBacklogFull.
	MaxBacklog int
	// TraceID links the job to the submitting request's trace; empty
	// defaults to the job-derived "job-<id>".
	TraceID string
}

// Manager is the durable job store plus its worker pool. Safe for
// concurrent use. Create with Open, stop with Close (graceful) or Kill
// (hard stop, for crash tests).
type Manager struct {
	cfg  Config
	exec ExecFunc // set by Start
	wal  *wal.Log // nil when in-memory only

	mu       sync.Mutex
	cond     *sync.Cond // signals workers when runq grows or the manager stops
	jobs     map[string]*tracked
	byIdem   map[string]string // idempotency key → job ID
	runq     []string          // FIFO of queued job IDs ready to execute
	term     []string          // terminal job IDs in termination order
	queuedBy map[string]int    // queued jobs per tenant, for backlog bounds
	closed   bool
	killed   bool

	ctx     context.Context // root of every execution and delivery
	cancel  context.CancelFunc
	workers sync.WaitGroup
	hooks   sync.WaitGroup

	submitted, deduped, completed, failed, retries atomic.Uint64
	hookOK, hookFail, evictions                    atomic.Uint64
	queued, running                                atomic.Int64
}

// Open builds a Manager and replays its directory's snapshot and WAL
// when cfg.Dir is set (healing a torn tail, demoting crash-orphaned
// running jobs back to queued). Jobs stay queued until Start supplies
// the executor — Open/Start split so whoever owns persistence (cmd/lwmd)
// can open the store before the executor's owner (the server) exists.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		jobs:     make(map[string]*tracked),
		byIdem:   make(map[string]string),
		queuedBy: make(map[string]int),
	}
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.cancel = context.WithCancel(context.Background())

	if cfg.Dir != "" {
		l, err := wal.Open(cfg.Dir, walFiles, cfg.MaxWALBytes, m.applyRecord)
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		m.wal = l
	}
	m.recover()
	return m, nil
}

// Start supplies the executor and launches the worker pool. Call exactly
// once per Manager; submissions made before Start simply wait queued.
func (m *Manager) Start(exec ExecFunc) {
	if exec == nil {
		panic("jobs: Start with nil executor")
	}
	m.mu.Lock()
	if m.exec != nil {
		m.mu.Unlock()
		panic("jobs: Start called twice")
	}
	m.exec = exec
	m.mu.Unlock()
	m.workers.Add(m.cfg.Workers)
	for i := 0; i < m.cfg.Workers; i++ {
		go m.work()
	}
}

// applyRecord folds one replayed WAL/snapshot record into the in-memory
// state. Counter-free: replay reconstructs jobs, not traffic.
func (m *Manager) applyRecord(rec wal.Record) error {
	body := []byte(rec.Body)
	kind, err := decodeRecord(rec.Head, body)
	if err != nil {
		return err
	}
	switch kind {
	case recKindJob:
		var j Job
		if err := json.Unmarshal(body, &j); err != nil {
			return fmt.Errorf("replaying job record: %w", err)
		}
		m.jobs[j.ID] = &tracked{job: &j, version: 1, changed: make(chan struct{})}
		if j.IdempotencyKey != "" {
			m.byIdem[j.IdempotencyKey] = j.ID
		}
	case recKindState:
		var tr stateRecord
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("replaying state record: %w", err)
		}
		t, ok := m.jobs[tr.ID]
		if !ok {
			return fmt.Errorf("state record for unknown job %s", tr.ID)
		}
		t.job.State = tr.State
		t.job.Attempt = tr.Attempt
		t.job.Error = tr.Error
		t.job.UpdatedUnixNano = tr.UpdatedUnixNano
		if tr.State == StateDone {
			t.job.Result = tr.Result
		}
	case recKindHook:
		var hr hookRecord
		if err := json.Unmarshal(body, &hr); err != nil {
			return fmt.Errorf("replaying hook record: %w", err)
		}
		// A hook record can outlive its job when retention evicted the
		// job while the delivery was in flight; ignore the orphan.
		if t, ok := m.jobs[hr.ID]; ok {
			t.job.WebhookDelivered = true
			t.job.WebhookAttempts = hr.Attempts
		}
	case recKindDrop:
		var dr dropRecord
		if err := json.Unmarshal(body, &dr); err != nil {
			return fmt.Errorf("replaying drop record: %w", err)
		}
		if t, ok := m.jobs[dr.ID]; ok {
			if t.job.IdempotencyKey != "" {
				delete(m.byIdem, t.job.IdempotencyKey)
			}
			delete(m.jobs, dr.ID)
		}
	}
	return nil
}

// recover finalizes replayed state before the workers start: running
// jobs were orphaned by a crash and demote to queued (their attempt
// counts stand — the crash consumed an attempt's worth of work, but the
// budget only gates declared failures, so the count is informational
// here); queued jobs re-enter the run queue in submission order;
// terminal jobs rebuild the retention order. Undelivered terminal
// webhooks re-deliver (at-least-once).
func (m *Manager) recover() {
	var queuedIDs, termIDs []string
	for id, t := range m.jobs {
		switch t.job.State {
		case StateRunning:
			t.job.State = StateQueued
			queuedIDs = append(queuedIDs, id)
		case StateQueued:
			queuedIDs = append(queuedIDs, id)
		default:
			termIDs = append(termIDs, id)
		}
	}
	byCreated := func(ids []string, stamp func(*Job) int64) {
		sort.Slice(ids, func(a, b int) bool {
			ja, jb := m.jobs[ids[a]].job, m.jobs[ids[b]].job
			if stamp(ja) != stamp(jb) {
				return stamp(ja) < stamp(jb)
			}
			return ja.ID < jb.ID
		})
	}
	byCreated(queuedIDs, func(j *Job) int64 { return j.CreatedUnixNano })
	byCreated(termIDs, func(j *Job) int64 { return j.UpdatedUnixNano })
	m.runq = queuedIDs
	m.term = termIDs
	m.queued.Store(int64(len(queuedIDs)))
	for _, id := range queuedIDs {
		m.queuedBy[m.jobs[id].job.Tenant]++
	}
	for _, id := range termIDs {
		t := m.jobs[id]
		if t.job.WebhookURL != "" && !t.job.WebhookDelivered {
			m.pushWebhookLocked(t.job.clone())
		}
	}
}

// stateRecord is the WAL document of one lifecycle transition.
type stateRecord struct {
	ID              string `json:"id"`
	State           string `json:"state"`
	Attempt         int    `json:"attempt"`
	Error           string `json:"error,omitempty"`
	Result          []byte `json:"result,omitempty"`
	UpdatedUnixNano int64  `json:"updated_unix_nano"`
}

// hookRecord is the WAL document of a finished webhook delivery.
type hookRecord struct {
	ID        string `json:"id"`
	Attempts  int    `json:"attempts"`
	Delivered bool   `json:"delivered"`
}

// dropRecord is the WAL document of a retention eviction.
type dropRecord struct {
	ID string `json:"id"`
}

// appendLocked journals one record. Caller holds mu (the live-set
// snapshot a compaction takes must match exactly the records already
// appended). In-memory managers skip straight to durability-free.
func (m *Manager) appendLocked(kind string, doc any) error {
	if m.wal == nil {
		return nil
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("jobs: encoding %s record: %w", kind, err)
	}
	if err := m.wal.Append(jobRecord(kind, body), m.liveRecordsLocked); err != nil {
		return fmt.Errorf("jobs: wal append: %w", err)
	}
	return nil
}

// liveRecordsLocked marshals every resident job for a compaction
// snapshot, in submission order. Caller holds mu.
func (m *Manager) liveRecordsLocked() []wal.Record {
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		ja, jb := m.jobs[ids[a]].job, m.jobs[ids[b]].job
		if ja.CreatedUnixNano != jb.CreatedUnixNano {
			return ja.CreatedUnixNano < jb.CreatedUnixNano
		}
		return ja.ID < jb.ID
	})
	recs := make([]wal.Record, 0, len(ids))
	for _, id := range ids {
		body, err := json.Marshal(m.jobs[id].job)
		if err != nil {
			continue // unmarshalable jobs cannot exist: they arrived as JSON
		}
		recs = append(recs, jobRecord(recKindJob, body))
	}
	return recs
}

// notifyLocked bumps the job's version and wakes its waiters. Caller
// holds mu.
func (m *Manager) notifyLocked(t *tracked) {
	t.version++
	close(t.changed)
	t.changed = make(chan struct{})
}

// Submit creates (or dedupes) one job. The returned snapshot is the
// job's state at return; created is false when an idempotency key
// resolved to an existing job.
func (m *Manager) Submit(s Submission) (job *Job, created bool, err error) {
	maxAttempts := s.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = m.cfg.DefaultMaxAttempts
	}
	if maxAttempts > m.cfg.MaxAttemptsCap {
		maxAttempts = m.cfg.MaxAttemptsCap
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrClosed
	}
	if s.IdempotencyKey != "" {
		if id, ok := m.byIdem[s.IdempotencyKey]; ok {
			if t, ok := m.jobs[id]; ok {
				m.deduped.Add(1)
				return t.job.clone(), false, nil
			}
		}
	}
	if m.queued.Load() >= int64(m.cfg.MaxQueued) {
		return nil, false, ErrBacklogFull
	}
	if s.MaxBacklog > 0 && m.queuedBy[s.Tenant] >= s.MaxBacklog {
		return nil, false, ErrTenantBacklogFull
	}
	now := nowNano()
	j := &Job{
		ID:              newJobID(),
		Tenant:          s.Tenant,
		Kind:            s.Kind,
		Payload:         s.Payload,
		WebhookURL:      s.WebhookURL,
		IdempotencyKey:  s.IdempotencyKey,
		MaxAttempts:     maxAttempts,
		TraceID:         s.TraceID,
		CreatedUnixNano: now,
		State:           StateQueued,
		UpdatedUnixNano: now,
	}
	if j.TraceID == "" {
		j.TraceID = "job-" + j.ID
	}
	// The job goes in before its append so that a compaction the append
	// triggers snapshots it.
	t := &tracked{job: j, version: 1, changed: make(chan struct{})}
	m.jobs[j.ID] = t
	if err := m.appendLocked(recKindJob, j); err != nil {
		delete(m.jobs, j.ID)
		return nil, false, err
	}
	if j.IdempotencyKey != "" {
		m.byIdem[j.IdempotencyKey] = j.ID
	}
	m.runq = append(m.runq, j.ID)
	m.queued.Add(1)
	m.queuedBy[j.Tenant]++
	m.submitted.Add(1)
	m.logJob(j, "")
	m.cond.Signal()
	return j.clone(), true, nil
}

// Get returns a snapshot of the job, or false for an unknown ID.
func (m *Manager) Get(id string) (*Job, bool) {
	j, _, ok := m.GetVersion(id)
	return j, ok
}

// GetVersion returns a snapshot plus the job's change version, the
// cursor Wait resumes from.
func (m *Manager) GetVersion(id string) (*Job, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return nil, 0, false
	}
	return t.job.clone(), t.version, true
}

// Wait blocks until the job's version exceeds since, the job is
// terminal, or ctx is done, and returns the then-current snapshot and
// version. A ctx expiry still returns the snapshot (with ctx's error),
// so a long-poll timeout answers the current state. Unknown IDs return
// ErrNotFound.
func (m *Manager) Wait(ctx context.Context, id string, since int) (*Job, int, error) {
	for {
		m.mu.Lock()
		t, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			return nil, 0, ErrNotFound
		}
		if t.version > since || t.job.Terminal() {
			j, v := t.job.clone(), t.version
			m.mu.Unlock()
			return j, v, nil
		}
		ch := t.changed
		m.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			m.mu.Lock()
			j, v := t.job.clone(), t.version
			m.mu.Unlock()
			return j, v, ctx.Err()
		}
	}
}

// work is one worker's loop: pop the oldest ready job, run one attempt,
// record the outcome. Exits when the manager closes.
func (m *Manager) work() {
	defer m.workers.Done()
	for {
		m.mu.Lock()
		for len(m.runq) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		id := m.runq[0]
		m.runq = m.runq[1:]
		t, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			continue // evicted while queued (cannot happen: only terminal jobs evict) — be safe
		}
		// queued → running consumes one attempt.
		t.job.State = StateRunning
		t.job.Attempt++
		t.job.Error = ""
		t.job.UpdatedUnixNano = nowNano()
		appendErr := m.appendLocked(recKindState, transitionOf(t.job))
		m.queued.Add(-1)
		m.dropQueuedByLocked(t.job.Tenant)
		m.running.Add(1)
		m.notifyLocked(t)
		job := t.job.clone()
		m.mu.Unlock()
		m.logJob(job, "")
		if appendErr != nil {
			// The WAL refused the transition (disk trouble). Fail the
			// attempt transiently so the retry budget decides.
			m.finishAttempt(id, nil, appendErr)
			continue
		}

		result, err := m.runAttempt(job)
		m.finishAttempt(id, result, err)
	}
}

// runAttempt executes one attempt under the manager's root context with
// a job-linked trace, so engine spans and log lines correlate on the
// job's ID. An executor panic fails the job permanently, naming the
// panic value, and leaves the worker running.
func (m *Manager) runAttempt(job *Job) (result []byte, err error) {
	ctx := WithTenant(m.ctx, job.Tenant)
	ctx = obs.WithTrace(ctx, obs.NewTrace(obs.TraceID(job.Trace())))
	ctx, span := obs.StartSpan(ctx, "job.attempt")
	span.SetAttr("job_id", job.ID)
	span.SetAttr("attempt", job.Attempt)
	defer span.Finish()
	defer func() {
		if v := recover(); v != nil {
			result, err = nil, Permanent(fmt.Errorf("jobs: executor panicked: %v", v))
		}
	}()
	return m.exec(ctx, job.Kind, job.Payload)
}

// finishAttempt records an attempt's outcome: done, failed, or a
// re-queue under the retry schedule.
func (m *Manager) finishAttempt(id string, result []byte, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		m.running.Add(-1)
		return
	}
	if (m.killed || m.ctx.Err() != nil) && err != nil {
		// Shutdown aborted the attempt: record nothing. The WAL still
		// says running, so the next Open demotes the job to queued and
		// re-runs it — exactly the crash contract.
		m.running.Add(-1)
		return
	}
	now := nowNano()
	switch {
	case err == nil:
		t.job.State = StateDone
		t.job.Result = result
		t.job.Error = ""
		m.completed.Add(1)
	case IsPermanent(err) || t.job.Attempt >= t.job.MaxAttempts:
		t.job.State = StateFailed
		t.job.Error = err.Error()
		m.failed.Add(1)
	default:
		t.job.State = StateQueued
		t.job.Error = err.Error()
		m.retries.Add(1)
	}
	t.job.UpdatedUnixNano = now
	if werr := m.appendLocked(recKindState, transitionOf(t.job)); werr != nil && m.cfg.Logger != nil {
		m.cfg.Logger.LogAttrs(context.Background(), slog.LevelError, "job_wal",
			slog.String("job_id", id), slog.String("err", werr.Error()))
	}
	m.running.Add(-1)
	m.notifyLocked(t)
	m.logJob(t.job, errString(err))

	switch t.job.State {
	case StateQueued:
		// Delay the re-queue by the retry schedule, freeing this worker
		// meanwhile. The job is already durable as queued: a crash before
		// the timer fires re-queues it immediately on the next Open.
		m.queued.Add(1)
		m.queuedBy[t.job.Tenant]++
		delay := m.cfg.Retry.Delay(t.job.Attempt, 0)
		time.AfterFunc(delay, func() { m.enqueue(id) })
	case StateDone, StateFailed:
		m.term = append(m.term, id)
		if t.job.WebhookURL != "" {
			m.pushWebhookLocked(t.job.clone())
		}
		m.evictLocked()
	}
}

// transitionOf shapes a job's current lifecycle fields as a WAL state
// record.
func transitionOf(j *Job) stateRecord {
	tr := stateRecord{
		ID: j.ID, State: j.State, Attempt: j.Attempt,
		Error: j.Error, UpdatedUnixNano: j.UpdatedUnixNano,
	}
	if j.State == StateDone {
		tr.Result = j.Result
	}
	return tr
}

// dropQueuedByLocked debits a tenant's queued count, pruning the map
// entry at zero. Caller holds mu.
func (m *Manager) dropQueuedByLocked(tenant string) {
	if m.queuedBy[tenant]--; m.queuedBy[tenant] <= 0 {
		delete(m.queuedBy, tenant)
	}
}

// QueuedFor reports how many of a tenant's jobs are currently queued.
func (m *Manager) QueuedFor(tenant string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queuedBy[tenant]
}

// enqueue puts a retry-delayed job back on the run queue.
func (m *Manager) enqueue(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return // stays queued in the WAL; the next Open re-runs it
	}
	if _, ok := m.jobs[id]; !ok {
		return
	}
	m.runq = append(m.runq, id)
	m.cond.Signal()
}

// evictLocked enforces terminal-job retention. Caller holds mu.
func (m *Manager) evictLocked() {
	for len(m.term) > m.cfg.Retention {
		id := m.term[0]
		m.term = m.term[1:]
		t, ok := m.jobs[id]
		if !ok {
			continue
		}
		// The job goes out before its drop record so that a compaction
		// the append triggers leaves it out of the snapshot.
		delete(m.jobs, id)
		if err := m.appendLocked(recKindDrop, dropRecord{ID: id}); err != nil {
			// Keep the job resident rather than diverging from the WAL.
			m.jobs[id] = t
			m.term = append([]string{id}, m.term...)
			return
		}
		if t.job.IdempotencyKey != "" {
			delete(m.byIdem, t.job.IdempotencyKey)
		}
		m.evictions.Add(1)
	}
}

// pushWebhookLocked starts a terminal job's webhook delivery. Caller
// holds mu; the delivery itself runs on its own goroutine, tracked for
// shutdown.
func (m *Manager) pushWebhookLocked(job *Job) {
	m.hooks.Add(1)
	go func() {
		defer m.hooks.Done()
		// Per-tenant webhook secrets resolve at delivery time (SecretFor
		// reads the hot-reloadable tenant registry), so a rotated secret
		// signs this push even if the job predates the rotation.
		hookCfg := m.cfg.Webhook
		if m.cfg.SecretFor != nil {
			if secret := m.cfg.SecretFor(job.Tenant); secret != "" {
				hookCfg.Secret = secret
			}
		}
		attempts, delivered := deliverWebhook(m.ctx, &hookCfg, m.cfg.Logger, job)
		if delivered {
			m.hookOK.Add(1)
		} else {
			m.hookFail.Add(1)
		}
		m.mu.Lock()
		if t, ok := m.jobs[job.ID]; ok {
			t.job.WebhookDelivered = true
			t.job.WebhookAttempts = attempts
			_ = m.appendLocked(recKindHook, hookRecord{ID: job.ID, Attempts: attempts, Delivered: delivered})
		}
		m.mu.Unlock()
		if m.cfg.Logger != nil {
			m.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "webhook",
				slog.String("job_id", job.ID),
				slog.String("trace_id", job.Trace()),
				slog.Bool("delivered", delivered),
				slog.Int("attempts", attempts))
		}
	}()
}

// logJob emits the job's transition log line.
func (m *Manager) logJob(j *Job, errMsg string) {
	if m.cfg.Logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("job_id", j.ID),
		slog.String("trace_id", j.Trace()),
		slog.String("kind", j.Kind),
		slog.String("state", j.State),
		slog.Int("attempt", j.Attempt),
		slog.Int("max_attempts", j.MaxAttempts),
	}
	if errMsg != "" {
		attrs = append(attrs, slog.String("err", errMsg))
	}
	m.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "job", attrs...)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Counters returns the manager's cumulative counters and gauges.
func (m *Manager) Counters() Counters {
	c := Counters{
		Submitted:         m.submitted.Load(),
		Deduped:           m.deduped.Load(),
		Completed:         m.completed.Load(),
		Failed:            m.failed.Load(),
		Retries:           m.retries.Load(),
		WebhookDeliveries: m.hookOK.Load(),
		WebhookFailures:   m.hookFail.Load(),
		Evictions:         m.evictions.Load(),
		Queued:            m.queued.Load(),
		Running:           m.running.Load(),
	}
	m.mu.Lock()
	c.Jobs = int64(len(m.jobs))
	m.mu.Unlock()
	if m.wal != nil {
		c.WALBytes = m.wal.Size()
		c.Compactions = m.wal.Compactions()
	}
	return c
}

// Close drains the manager gracefully: submissions stop, idle workers
// exit, running attempts finish (bounded by ctx — on expiry they are
// cancelled and left "running" in the WAL for the next Open to demote),
// in-flight webhook deliveries complete, their idle connections close,
// and the WAL closes. Queued jobs stay durable for the next Open.
// Idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	if already && m.wal == nil {
		return nil
	}

	var err error
	if waitCtx(ctx, &m.workers) != nil {
		// Out of patience: abort running attempts. Workers observe the
		// cancel and record nothing, preserving the crash contract.
		m.cancel()
		m.workers.Wait()
		err = fmt.Errorf("jobs: drain interrupted; running attempts aborted: %w", ctx.Err())
	}
	if waitCtx(ctx, &m.hooks) != nil {
		m.cancel()
		m.hooks.Wait()
	}
	m.cancel()
	// A delivered webhook leaves its connection kept alive, with two
	// transport goroutines waiting on it; no delivery follows Close.
	m.cfg.Webhook.HTTPClient.CloseIdleConnections()
	if m.wal != nil {
		if cerr := m.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Kill hard-stops the manager, simulating a daemon crash for tests:
// running attempts are cancelled and their outcomes discarded (the WAL
// keeps whatever was already appended — including jobs left "running"),
// webhook deliveries are abandoned, and the WAL file handle closes with
// no further writes. The next Open on the same directory sees exactly
// the on-disk state a SIGKILL would have left.
func (m *Manager) Kill() {
	m.mu.Lock()
	m.closed = true
	m.killed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.cancel()
	m.workers.Wait()
	m.hooks.Wait()
	if m.wal != nil {
		m.wal.Close()
	}
}

// waitCtx waits for wg, bounded by ctx.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

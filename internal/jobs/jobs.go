// Package jobs is the daemon's durable asynchronous job subsystem: the
// substrate behind POST /v1/jobs that lets heavy engine work (a
// mediabench-scale embed runs for a second-plus) complete outside the
// submitting request's HTTP lifetime.
//
// The pieces, each proven the way the registry's were:
//
//   - A durable job store: every submission and state transition is
//     appended to a write-ahead log with snapshot compaction
//     (internal/wal, the log the design registry also uses), so jobs
//     survive daemon restarts — including a SIGKILL mid-transition,
//     healed by truncating the torn tail. A job found "running" on replay was orphaned by a crash and
//     is demoted back to "queued".
//   - A worker pool draining queued jobs through an executor the server
//     supplies. Transient failures retry under capped full-jitter
//     exponential backoff (seeded PRNG, so tests replay the schedule);
//     the retry budget exhausting — or a permanent failure — terminates
//     the job in the "failed" state.
//   - Completion push: a terminal job with a webhook URL is POSTed its
//     status, HMAC-signed and carrying a delivery-stable idempotency key
//     so receivers dedupe redeliveries (a crash between delivery and the
//     delivery's WAL record makes at-least-once the honest contract).
//   - Status subscriptions: every transition bumps the job's version and
//     wakes waiters, backing the server's long-poll and SSE streams.
//
// The executor contract keeps the package engine-agnostic: the server
// hands Open a func(ctx, kind, payload) → result bytes, and the result
// bytes are by construction the exact body the synchronous endpoint
// would have answered — the byte-identity the e2e suite asserts.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"localwm/lwmapi"
)

// Job states and kinds are the lwmapi wire constants; the store persists
// them verbatim.
const (
	StateQueued  = lwmapi.JobQueued
	StateRunning = lwmapi.JobRunning
	StateDone    = lwmapi.JobDone
	StateFailed  = lwmapi.JobFailed
)

// Job is one persisted job record: the submission fields plus the
// mutable lifecycle state. The manager owns all mutation; callers only
// ever see snapshot copies.
type Job struct {
	// ID is the job's process-unique identifier ("j<hex>").
	ID string `json:"id"`
	// Tenant is the submitting tenant's ID ("" = anonymous). Persisted so
	// job visibility and webhook-secret selection survive a restart; the
	// server treats a cross-tenant job ID as not found.
	Tenant string `json:"tenant,omitempty"`
	// Kind is the engine entry point: embed, detect, or verify.
	Kind string `json:"kind"`
	// Payload is the synchronous endpoint's request envelope, verbatim.
	Payload json.RawMessage `json:"payload"`
	// WebhookURL, when set, receives the terminal status push.
	WebhookURL string `json:"webhook_url,omitempty"`
	// IdempotencyKey dedupes resubmissions (empty: no dedup).
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// MaxAttempts is the retry budget.
	MaxAttempts int `json:"max_attempts"`
	// TraceID links the job to the submitting request's trace: execution
	// attempts, log lines, webhook deliveries, and status reads all carry
	// it, so one ID follows the work across the async boundary. Empty on
	// jobs persisted before trace continuity (an old WAL); Trace()
	// supplies the historical fallback.
	TraceID string `json:"trace_id,omitempty"`
	// CreatedUnixNano timestamps the submission.
	CreatedUnixNano int64 `json:"created_unix_nano"`

	// State is the lifecycle state (queued, running, done, failed).
	State string `json:"state"`
	// Attempt counts execution attempts started so far.
	Attempt int `json:"attempt"`
	// Error is the last (or final) failure message.
	Error string `json:"error,omitempty"`
	// Result holds the terminal response bytes of a done job: exactly
	// the body the synchronous endpoint would have written.
	Result []byte `json:"result,omitempty"`
	// UpdatedUnixNano timestamps the latest transition.
	UpdatedUnixNano int64 `json:"updated_unix_nano"`
	// WebhookDelivered records that the terminal webhook push finished
	// (successfully or by exhausting its delivery attempts), so a
	// restart does not push again.
	WebhookDelivered bool `json:"webhook_delivered,omitempty"`
	// WebhookAttempts counts delivery attempts made.
	WebhookAttempts int `json:"webhook_attempts,omitempty"`
}

// Terminal reports whether the job has reached done or failed.
func (j *Job) Terminal() bool { return lwmapi.TerminalJobState(j.State) }

// Trace returns the job's linked trace ID, falling back to the
// job-derived ID for records persisted before TraceID existed.
func (j *Job) Trace() string {
	if j.TraceID != "" {
		return j.TraceID
	}
	return "job-" + j.ID
}

// Status renders the job as its wire-facing status.
func (j *Job) Status() lwmapi.JobStatus {
	return lwmapi.JobStatus{
		ID:              j.ID,
		TraceID:         j.Trace(),
		Kind:            j.Kind,
		State:           j.State,
		Attempt:         j.Attempt,
		MaxAttempts:     j.MaxAttempts,
		Error:           j.Error,
		CreatedUnixNano: j.CreatedUnixNano,
		UpdatedUnixNano: j.UpdatedUnixNano,
		Terminal:        j.Terminal(),
	}
}

// clone returns a private copy of the job (Payload and Result share
// backing arrays; both are write-never by contract).
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// tenantKey carries the executing job's tenant ID through the attempt
// context, so the ExecFunc signature stays tenant-agnostic.
type tenantKey struct{}

// WithTenant returns a context carrying the submitting tenant's ID. The
// worker pool installs it on every attempt context; executors that
// namespace their reads (the server's design-ref resolution) recover it
// with TenantFrom.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom returns the tenant ID installed by WithTenant, or "" (the
// anonymous namespace) when absent.
func TenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// jobSeq breaks ties if the random source ever repeats in-process.
var jobSeq atomic.Uint64

// newJobID returns a process-unique job identifier: "j" + 12 random hex
// digits + a process-local sequence number.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("j000000000000-%06x", jobSeq.Add(1))
	}
	return fmt.Sprintf("j%s-%06x", hex.EncodeToString(b[:]), jobSeq.Add(1))
}

// permanentError marks an executor failure that retrying cannot fix
// (malformed payload, unresolvable design_ref): the job fails terminally
// without consuming the rest of its retry budget.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps an executor error as non-retryable. Executors return
// Permanent(err) for definite failures and plain errors for transient
// ones; the worker pool retries only the latter.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err (anywhere in its chain) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// nowNano is the package clock, swapped by tests that need stable
// timestamps.
var nowNano = func() int64 { return time.Now().UnixNano() }

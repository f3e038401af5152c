package jobs

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"localwm/internal/obs"
	"localwm/lwmapi"
)

// Webhook push: a terminal job with a WebhookURL is POSTed its
// lwmapi.JobStatus as JSON. The delivery contract is at-least-once —
// a crash between a successful POST and its WAL record redelivers on
// restart — so every delivery carries a stable idempotency key
// ("<job id>:<terminal state>") the receiver dedupes on, and the HMAC
// signature covers key and body together so a valid signature cannot be
// replayed onto a different delivery's payload.

// SignWebhook computes the webhook signature header value for a
// delivery: "sha256=" + hex(HMAC-SHA256(secret, key + "\n" + body)).
// The idempotency key is part of the signed material, so garbling either
// the key or the body invalidates the signature.
func SignWebhook(secret, idempotencyKey string, body []byte) string {
	mac := hmac.New(sha256.New, []byte(secret))
	mac.Write([]byte(idempotencyKey))
	mac.Write([]byte{'\n'})
	mac.Write(body)
	return "sha256=" + hex.EncodeToString(mac.Sum(nil))
}

// VerifyWebhook checks a received delivery's signature header against
// the shared secret, in constant time. It returns false for a missing or
// malformed header, a garbled body, or a signature minted for a
// different idempotency key.
func VerifyWebhook(secret, idempotencyKey string, body []byte, header string) bool {
	want := SignWebhook(secret, idempotencyKey, body)
	return hmac.Equal([]byte(want), []byte(header))
}

// WebhookConfig parameterizes the deliverer.
type WebhookConfig struct {
	// Secret keys the HMAC signature. Empty disables signing (the
	// signature header is omitted); receivers that require signatures
	// should reject unsigned deliveries.
	Secret string
	// MaxAttempts caps delivery attempts per terminal job. Zero
	// defaults to 5.
	MaxAttempts int
	// Retry schedules the delay between delivery attempts (full-jitter
	// capped backoff; nil takes the policy defaults). A 429/503 answer's
	// Retry-After header floors the delay, like the client's discipline.
	Retry *RetryPolicy
	// Timeout bounds each delivery attempt. Zero defaults to 10s.
	Timeout time.Duration
	// HTTPClient is the delivering transport (tests inject one). Nil
	// defaults to a client with a transport of its own, so Close can
	// drop the kept-alive connections its deliveries leave behind.
	HTTPClient *http.Client
}

func (c WebhookConfig) withDefaults() WebhookConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	if c.Retry == nil {
		c.Retry = &RetryPolicy{}
	}
	return c
}

// WebhookIdempotencyKey is the delivery-stable dedup key for a job's
// terminal push.
func WebhookIdempotencyKey(jobID, state string) string {
	return jobID + ":" + state
}

// deliverWebhook POSTs the terminal status until a 2xx, the attempt
// budget exhausts, or ctx dies. It returns the attempts made and whether
// a delivery succeeded. Any non-2xx answer or transport failure is
// retried: the receiver is an arbitrary external endpoint, so there is
// no definite-vs-transient distinction worth trusting.
func deliverWebhook(ctx context.Context, cfg *WebhookConfig, logger *slog.Logger, job *Job) (attempts int, delivered bool) {
	status := job.Status()
	body, err := json.Marshal(status)
	if err != nil {
		// A JobStatus that fails to marshal is a programming error; give
		// up without burning attempts.
		return 0, false
	}
	key := WebhookIdempotencyKey(job.ID, job.State)
	for attempts = 1; ; attempts++ {
		hint, err := postWebhook(ctx, cfg, job.WebhookURL, key, job.Trace(), body, attempts)
		if err == nil {
			return attempts, true
		}
		if logger != nil {
			logger.LogAttrs(context.Background(), slog.LevelWarn, "webhook_attempt",
				slog.String("job_id", job.ID),
				slog.Int("attempt", attempts),
				slog.String("err", err.Error()))
		}
		if attempts >= cfg.MaxAttempts || ctx.Err() != nil {
			return attempts, false
		}
		if serr := sleepCtx(ctx, cfg.Retry.Delay(attempts, hint)); serr != nil {
			return attempts, false
		}
	}
}

// postWebhook sends one delivery attempt. A 2xx answer is success (nil
// error); anything else reports the failure and, when the receiver sent
// a Retry-After, the backoff floor it asked for.
func postWebhook(ctx context.Context, cfg *WebhookConfig, url, key, traceID string, body []byte, attempt int) (hint time.Duration, err error) {
	actx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, fmt.Errorf("jobs: building webhook request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(lwmapi.WebhookIdempotencyHeader, key)
	req.Header.Set(lwmapi.WebhookAttemptHeader, strconv.Itoa(attempt))
	// The job-linked trace ID rides every delivery, closing the loop the
	// submitting request opened: receiver logs correlate with the daemon's
	// attempt spans and the retained flight-recorder trace.
	req.Header.Set(obs.TraceHeader, traceID)
	if cfg.Secret != "" {
		req.Header.Set(lwmapi.WebhookSignatureHeader, SignWebhook(cfg.Secret, key, body))
	}
	resp, err := cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("jobs: webhook post: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) // drain for keep-alive
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return 0, nil
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(strings.TrimSpace(s)); perr == nil && secs >= 0 {
			hint = time.Duration(secs) * time.Second
		}
	}
	return hint, fmt.Errorf("jobs: webhook answered %d", resp.StatusCode)
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

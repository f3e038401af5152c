package jobs

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// settle waits until the goroutine count is back at base, failing after
// a few seconds.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, started with %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestManagerCloseJoinsGoroutines: after a job's webhook is delivered,
// Close leaves no goroutine of the manager's behind — workers, the
// delivery and the delivery's connection alike — while the receiver
// stays up, as a real one does.
func TestManagerCloseJoinsGoroutines(t *testing.T) {
	var hooks hookReceiver
	ts := httptest.NewServer(hooks.handler())
	defer ts.Close()
	base := runtime.NumGoroutine()

	m, err := Open(Config{Workers: 2, Retry: fastRetry(), Webhook: WebhookConfig{Retry: fastRetry()}})
	if err != nil {
		t.Fatal(err)
	}
	m.Start(echoExec)
	j := mustSubmit(t, m, Submission{WebhookURL: ts.URL})
	waitTerminal(t, m, j.ID)
	waitDelivered(t, m, j.ID)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	settle(t, base)
}

//go:build linux

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"

	"localwm/internal/store"
	"localwm/lwmapi"
)

// TestPutDesignFailedAppendIsRetryable: a put whose store log append
// fails (the process's file size limit, RLIMIT_FSIZE, lowered below the
// next record) answers 500 internal with retryable set, not a 400 that
// blames the design, and the same put succeeds once the limit is back.
// The limit is process-wide, so this test must not run in parallel.
func TestPutDesignFailedAppendIsRetryable(t *testing.T) {
	fx := makeFixture(t, "rlimit")
	st, err := store.Open(store.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(Config{Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := json.Marshal(lwmapi.PutDesignRequest{Design: fx.designText})
	if err != nil {
		t.Fatal(err)
	}

	var resp *http.Response
	var data []byte
	func() {
		var old syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
		lim := old
		lim.Cur = uint64(st.Counters().WALBytes) + 10
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
				t.Fatal(err)
			}
		}()
		resp, data = doJSON(t, ts.Client(), http.MethodPut, ts.URL+"/v1/designs", body)
	}()

	var e lwmapi.Error
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("status %d: %v: %s", resp.StatusCode, err, data)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Code != lwmapi.CodeInternal || !e.Retryable {
		t.Fatalf("failed append: status %d code %q retryable %t (%s), want 500 %q retryable",
			resp.StatusCode, e.Code, e.Retryable, e.Message, lwmapi.CodeInternal)
	}
	if pr := putDesign(t, ts.Client(), ts.URL, fx.designText); !pr.Created {
		t.Fatal("retry after the failed append did not insert the design")
	}
}

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"localwm/lwmapi"
)

// TestAdmissionMessages pins the text of lwmd's request-level 400s, which
// internal/family's admission checks now produce for the daemon and for
// lwm's in-process runs alike.
func TestAdmissionMessages(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for _, tc := range []struct {
		path, body, msg string
	}{
		{"/v1/embed", `{"design":"node a add"}`, "signature: required"},
		{"/v1/embed", `{"design":"node a add","signature":"s","n":-1}`, "n: must be positive, got -1"},
		{"/v1/embed", `{"design":" \n","signature":"s"}`, "design: empty design"},
		{"/v1/embed", `{"family":"gcolor","design":"","signature":"s"}`, "design: empty design"},
		{"/v1/detect", `{"records":[{}]}`, "suspects: at least one required"},
		{"/v1/detect", `{"suspects":[{"design":"node a add","schedule":""}]}`, "records: at least one required"},
		{"/v1/detect", `{"suspects":[{"design":"","schedule":""}],"records":[{}]}`, "suspects[0]: empty design"},
		{"/v1/verify", `{"design":"node a add","schedule":""}`, "signature: required"},
		{"/v1/verify", `{"design":"","schedule":"","signature":"s"}`, "suspect: empty design"},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+tc.path, []byte(tc.body))
		e := decodeAPIError(t, data)
		if resp.StatusCode != http.StatusBadRequest || e.Code != lwmapi.CodeBadRequest || e.Retryable || e.Message != tc.msg {
			t.Errorf("%s %s: %d %+v, want 400 bad_request %q", tc.path, tc.body, resp.StatusCode, e, tc.msg)
		}
	}
}

// TestNoOperationDesignIsBadRequest: a scheduling design without a
// single operation (here only a comment) has nothing to mark. Embed,
// verify and a robustness campaign must refuse it as a client error,
// not answer the retryable 500 of a panic.
func TestNoOperationDesignIsBadRequest(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	const design = "# only a comment\n"
	bodies := map[string]any{
		"/v1/embed":  lwmapi.EmbedRequest{Design: design, Signature: "s"},
		"/v1/verify": lwmapi.VerifyRequest{Design: design, Schedule: "", Signature: "s"},
		"/v1/robustness": lwmapi.RobustnessRequest{
			Design: design, Signature: "s", Seed: "s",
			Battery: lwmapi.BatterySpec{
				Attacks: []lwmapi.AttackSpec{{Family: lwmapi.AttackPerturb, Intensities: []int{1}}},
				Trials:  1,
			},
		},
	}
	for path, body := range bodies {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postJSON(t, ts.Client(), ts.URL+path, data)
		e := decodeAPIError(t, out)
		if resp.StatusCode != http.StatusBadRequest || e.Code != lwmapi.CodeBadRequest || e.Retryable {
			t.Errorf("%s: %d %+v, want 400 bad_request, not retryable", path, resp.StatusCode, e)
		}
	}
}

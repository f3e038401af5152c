package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"localwm/lwmapi"
)

// apiEndpoints are the compute endpoints FuzzAPIRequest posts to.
var apiEndpoints = []string{"/v1/embed", "/v1/detect", "/v1/verify"}

// apiSeed is one request body and the index of the endpoint it is for.
type apiSeed struct {
	endpoint uint8
	body     []byte
}

// goldenSeeds builds one embed, detect and verify body per family from
// the lwm golden transcript (cmd/lwm/testdata/golden): its designs,
// solutions, records and explicit mark flags, as lwm sends them.
func goldenSeeds(f *testing.F) []apiSeed {
	f.Helper()
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "lwm", "testdata", "golden", name))
		if err != nil {
			f.Fatal(err)
		}
		return string(data)
	}
	records := func(name string) []lwmapi.Record {
		var rf struct{ Records []lwmapi.Record }
		if err := json.Unmarshal([]byte(read(name)), &rf); err != nil {
			f.Fatal(err)
		}
		return rf.Records
	}
	var seeds []apiSeed
	add := func(endpoint uint8, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, apiSeed{endpoint, data})
	}
	for _, fam := range []struct {
		name, design, suspect, solution, records string
		params                                   lwmapi.MarkParams
	}{
		{"", "dac.cdfg", "dac.cdfg", "sched.schedule.txt", "sched.record.json",
			lwmapi.MarkParams{N: 2, Tau: 16, K: 3, Epsilon: 0.4, Budget: 150}},
		{"tmwm", "dac.cdfg", "tmwm.marked.cdfg", "tmwm.cover.txt", "tmwm.record.json",
			lwmapi.MarkParams{N: 2, Tau: 12, K: 2, Epsilon: 0.3, Budget: 150}},
		{"gcolor", "gcolor.txt", "gcolor.marked.txt", "gcolor.coloring.txt", "gcolor.record.json",
			lwmapi.MarkParams{N: 1, Tau: 12, K: 5}},
	} {
		add(0, lwmapi.EmbedRequest{Family: fam.name, Design: read(fam.design), Signature: "golden", MarkParams: fam.params})
		add(1, lwmapi.DetectRequest{
			Family:   fam.name,
			Suspects: []lwmapi.Suspect{{Design: read(fam.suspect), Schedule: read(fam.solution)}},
			Records:  records(fam.records),
			Workers:  2,
		})
		add(2, lwmapi.VerifyRequest{Family: fam.name, Design: read(fam.suspect), Schedule: read(fam.solution),
			Signature: "golden", MarkParams: fam.params})
	}
	// A design without a single operation.
	const comment = "# only a comment\n"
	add(0, lwmapi.EmbedRequest{Design: comment, Signature: "s"})
	add(1, lwmapi.DetectRequest{Suspects: []lwmapi.Suspect{{Design: comment}}, Records: records("sched.record.json")})
	add(2, lwmapi.VerifyRequest{Design: comment, Signature: "s"})
	return seeds
}

// FuzzAPIRequest posts a fuzzed body to /v1/embed, /v1/detect or
// /v1/verify (the endpoint byte picks one) on one in-process server. No
// body a client can send may make the daemon answer 5xx: a 500 is
// retryable, so lwmclient would resend a request that can never
// succeed. Seeded with the golden transcript's requests for every
// family and with a design that has no operations.
func FuzzAPIRequest(f *testing.F) {
	for _, seed := range goldenSeeds(f) {
		f.Add(seed.endpoint, seed.body)
	}
	srv := New(Config{EngineWorkers: 2})
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := apiEndpoints[int(endpoint)%len(apiEndpoints)]
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body.Bytes())
		}
	})
}

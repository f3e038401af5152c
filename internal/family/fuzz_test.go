package family_test

import (
	"context"
	"encoding/json"
	"testing"

	"localwm/internal/family"
	"localwm/lwmapi"
)

// fuzzSuspect is one family's fixed suspect for FuzzDetectRecord, with
// the records its embed wrote.
type fuzzSuspect struct {
	proto   family.Protocol
	suspect family.Suspect
	records []lwmapi.Record
}

// fuzzSuspects embeds into every family's test design (the D/A converter
// of Table II for sched and tmwm, a RandomGraph for gcolor) and parses
// the suspect the way the CLI and the daemon do: sched scans the
// unmarked design under a list schedule of the marked one, tmwm the
// design under its marked cover, gcolor the marked instance under its
// DSATUR coloring.
func fuzzSuspects(f *testing.F) []fuzzSuspect {
	f.Helper()
	var out []fuzzSuspect
	for _, fam := range family.Names() {
		proto, err := family.Lookup(fam)
		if err != nil {
			f.Fatal(err)
		}
		text := designTextFor(f, fam)
		d, err := proto.ParseDesign(text)
		if err != nil {
			f.Fatal(err)
		}
		var params lwmapi.MarkParams
		proto.Normalize(&params)
		resp, err := proto.Embed(context.Background(), d.Clone(), "fuzz", params, 1)
		if err != nil {
			f.Fatalf("%s: embed: %v", fam, err)
		}
		suspectText := resp.MarkedDesign
		if fam == lwmapi.FamilySched {
			suspectText = text
		}
		sd, err := proto.ParseDesign(suspectText)
		if err != nil {
			f.Fatal(err)
		}
		sol, err := proto.ParseSolution(sd, solutionTextFor(f, proto, resp))
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, fuzzSuspect{proto, family.Suspect{Design: sd, Solution: sol}, resp.Records})
	}
	return out
}

// FuzzDetectRecord decodes the input as one wire record, as /v1/detect
// and lwm detect take it from a client, and scans a fixed suspect of
// every family for it: no panic, no request-level error, and exactly one
// outcome for the one record.
func FuzzDetectRecord(f *testing.F) {
	suspects := fuzzSuspects(f)
	seed := func(rec lwmapi.Record) {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, fs := range suspects {
		for _, rec := range fs.records {
			seed(rec)
			for _, rank := range []int{-1, 1 << 40} {
				bad := rec
				bad.RankEdges = [][2]int{{rank, 0}, {0, rank}}
				bad.RankPairs = [][2]int{{rank, 0}, {0, rank}}
				bad.RankEnforced = []lwmapi.RankMatching{{Template: rank, Ranks: []int{0, rank}}}
				bad.TLen, bad.Tau = rank, rank
				seed(bad)
			}
			empty := rec
			empty.RankEdges, empty.RankPairs, empty.RankEnforced = [][2]int{}, [][2]int{}, nil
			seed(empty)
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Signature":null,"RankPairs":[[-1,-1]],"Tau":-3}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec lwmapi.Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return
		}
		for _, fs := range suspects {
			resp, err := fs.proto.Detect(context.Background(), []family.Suspect{fs.suspect}, []lwmapi.Record{rec}, 1)
			if err != nil {
				t.Fatalf("%s: request-level error: %v", fs.proto.Name(), err)
			}
			if len(resp.Results) != 1 || len(resp.Results[0]) != 1 {
				t.Fatalf("%s: %d suspect rows for one suspect and one record", fs.proto.Name(), len(resp.Results))
			}
		}
	})
}

package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"localwm/internal/wal"
)

// Persistence layout (Config.Dir), in internal/wal's framing:
//
//	jobs.wal   record log, replayed over the snapshot on Open
//	jobs.snap  full live-job set at the last compaction
//
// Each record's head is `rec <kind> <sha256-hex>`: the hash of the JSON
// body makes every record self-verifying. Record kinds:
//
//	job    a full Job document — submission (log) or compacted state
//	       (snapshot)
//	state  a lifecycle transition: {id, state, attempt, error, result,
//	       updated_unix_nano}
//	hook   webhook-delivery completion: {id, attempts, delivered}
//	drop   retention eviction of a terminal job: {id}
//
// An append that takes jobs.wal past Config.MaxWALBytes compacts the
// live set into the snapshot as one job record per job.
var walFiles = wal.Files{
	Log: "jobs.wal", LogHeader: "lwmjobs-wal v1",
	Snap: "jobs.snap", SnapHeader: "lwmjobs-snap v1",
}

const (
	recKindJob   = "job"
	recKindState = "state"
	recKindHook  = "hook"
	recKindDrop  = "drop"
)

func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// jobRecord frames one record body under its kind and content hash.
func jobRecord(kind string, body []byte) wal.Record {
	return wal.Record{Head: "rec " + kind + " " + bodySum(body), Body: string(body)}
}

// decodeRecord checks a record's head and its body's content hash and
// returns its kind.
func decodeRecord(head string, body []byte) (kind string, err error) {
	f := strings.Split(head, " ")
	if len(f) != 3 || f[0] != "rec" {
		return "", fmt.Errorf("malformed record header %q", head)
	}
	switch kind = f[1]; kind {
	case recKindJob, recKindState, recKindHook, recKindDrop:
	default:
		return "", fmt.Errorf("unknown record kind %q", kind)
	}
	if bodySum(body) != f[2] {
		return "", fmt.Errorf("%s record fails content hash", kind)
	}
	return kind, nil
}

package store

import (
	"fmt"
	"strings"

	"localwm/internal/wal"
	"localwm/lwmapi"
)

// Persistence layout (Config.Dir), in internal/wal's framing:
//
//	wal.log   put log, replayed over the snapshot on Open
//	snapshot  full resident set at the last compaction
//
// Each record's body is a canonical design text; its head is one of
//
//	put <ref>
//	putt <tenant> <ref>
//	putf <family> <tenant|-> <ref>
//
// `put` records the anonymous namespace (every pre-tenant WAL replays
// unchanged); `putt` records a tenant-owned design whose ref is the
// tenant-salted hash (RefOfOwned), verified as such on replay. Both
// record scheduling-family designs only — the pre-family record forms
// keep writing (and replaying) byte-identically. `putf` records a
// design of any other watermark family ("-" stands for the anonymous
// tenant), whose ref is the family- and tenant-salted hash
// (RefOfFamily), likewise verified on replay. Tenant IDs are
// whitespace-free by construction (internal/tenant.ValidID) and family
// names are bare lowercase words, so splitting the head on single
// spaces is unambiguous. A put whose append takes wal.log past
// Config.MaxWALBytes compacts the resident set into the snapshot.
var walFiles = wal.Files{
	Log: "wal.log", LogHeader: "lwmstore-wal v1",
	Snap: "snapshot", SnapHeader: "lwmstore-snap v1",
}

// validTenantToken loosely mirrors internal/tenant.ValidID without
// importing it (the store stays control-plane-agnostic): 1..64 chars of
// [a-z0-9_-], which guarantees the space-delimited head parse was
// unambiguous.
func validTenantToken(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

// validFamilyToken loosely validates a `putf` family name without
// consulting the registry (unknown families fail later, at parse):
// 1..32 chars of [a-z0-9], which guarantees the space-delimited head
// parse was unambiguous. "-" is not a family.
func validFamilyToken(f string) bool {
	if len(f) == 0 || len(f) > 32 {
		return false
	}
	for i := 0; i < len(f); i++ {
		c := f[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// designRecord frames a resident design under its family and owner's
// namespace. Scheduling-family designs keep the pre-family `put`/`putt`
// heads so existing logs and snapshots stay byte-compatible.
func designRecord(d *Design) wal.Record {
	var head string
	switch {
	case d.Family != lwmapi.FamilySched:
		tenant := d.Tenant
		if tenant == "" {
			tenant = "-"
		}
		head = "putf " + d.Family + " " + tenant + " " + d.Ref
	case d.Tenant == "":
		head = "put " + d.Ref
	default:
		head = "putt " + d.Tenant + " " + d.Ref
	}
	return wal.Record{Head: head, Body: d.Text}
}

// decodeDesign parses a record's head and verifies its content hash
// under the record's namespace. fam is "" for the scheduling-family
// heads.
func decodeDesign(rec wal.Record) (fam, tenant, text string, err error) {
	f := strings.Split(rec.Head, " ")
	var ref string
	ok := false
	switch {
	case len(f) == 2 && f[0] == "put":
		ref, ok = f[1], true
	case len(f) == 3 && f[0] == "putt":
		tenant, ref = f[1], f[2]
		ok = validTenantToken(tenant)
	case len(f) == 4 && f[0] == "putf":
		fam, tenant, ref = f[1], f[2], f[3]
		ok = validFamilyToken(fam) && (tenant == "-" || validTenantToken(tenant))
		if tenant == "-" {
			tenant = ""
		}
	}
	if !ok || !ValidRef(ref) {
		return "", "", "", fmt.Errorf("malformed record header %q", rec.Head)
	}
	if RefOfFamily(fam, tenant, rec.Body) != ref {
		return "", "", "", fmt.Errorf("record %s fails content hash", ref)
	}
	return fam, tenant, rec.Body, nil
}

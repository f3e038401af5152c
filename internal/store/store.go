// Package store is the daemon's content-addressed design registry: the
// reason a many-scans-per-design workload (one owner checking many
// records against one suspect, a corpus of protected designs rescanned
// as new suspects appear) stops paying the parse and longest-path
// warmup on every request.
//
// A design is keyed by the lowercase hex SHA-256 of its canonical text
// — the output of the owning family's writer over the parsed design —
// so two texts of the same design (comments, blank lines, orderings the
// Write∘Parse round trip normalizes) map to one reference, and a
// reference resolves to exactly one design forever. Each resident entry
// caches the parsed family artifact; for the cdfg-backed families the
// *cdfg.Graph additionally has its PathOracle warmed for the
// detection-side queries. Request handlers share the artifact read-only
// (detection and verification never mutate the suspect — embedding
// clones first).
//
// References are family-salted (RefOfFamily): the scheduling family
// hashes exactly as the store always has — every pre-family ref, WAL,
// and snapshot stays valid — while other families fold their name into
// the hash, so the same canonical text registered under two families
// yields two unrelated refs and a ref can never resolve as the wrong
// family's design.
//
// Capacity is bounded: entries hash across Config.Shards shards, each
// holding at most Capacity/Shards designs under LRU eviction, so a hot
// million-design corpus degrades to misses instead of eating the heap.
// With Config.Dir set the registry survives restarts: every put appends
// to a size-capped write-ahead log, compacted into a snapshot of the
// resident set whenever the log outgrows Config.MaxWALBytes (the log is
// internal/wal; wal.go has the record format).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"localwm/internal/cdfg"
	"localwm/internal/family"
	"localwm/internal/wal"
	"localwm/lwmapi"
)

// ErrQuotaExceeded rejects a put that would push its tenant past the
// byte or entry quota supplied to PutOwned. The daemon maps it to 413
// tenant_quota_exceeded. Quotas are enforced against the tenant's
// current resident footprint, so LRU eviction (and re-putting smaller
// designs) naturally frees headroom.
var ErrQuotaExceeded = errors.New("store: tenant quota exceeded")

// ErrAppend marks a put that failed because its write-ahead log append
// did: a disk-side fault such as a full disk or a file size limit, not a
// fault of the design. Nothing stays resident, so the same put may
// succeed on retry. The daemon maps it to 500 internal, which is
// retryable.
var ErrAppend = errors.New("store: wal append")

// Config sizes the registry. The zero value is a usable in-memory-only
// store with the documented defaults.
type Config struct {
	// Shards is the number of independently locked segments. Zero
	// defaults to 16. Use 1 in tests that need deterministic global LRU
	// order.
	Shards int
	// Capacity is the maximum resident designs across all shards
	// (divided evenly; at least 1 per shard). Zero defaults to 1024.
	Capacity int
	// Dir, when non-empty, persists the registry under this directory
	// (wal.log + snapshot). Empty keeps the registry in memory only.
	Dir string
	// MaxWALBytes caps the write-ahead log: when an append pushes the
	// log past this size, the resident set is snapshotted and the log
	// truncated. Zero defaults to 8 MiB.
	MaxWALBytes int64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.MaxWALBytes <= 0 {
		c.MaxWALBytes = 8 << 20
	}
	return c
}

// Design is one resident registry entry. All fields are immutable after
// insertion; Graph is shared by every caller and MUST be treated as
// read-only — clone it before any mutation (embedding does).
type Design struct {
	// Ref is the content-addressed reference: lowercase hex SHA-256 of
	// Text, salted with Tenant when owned and with Family when the
	// design is not a scheduling design (see RefOfFamily).
	Ref string
	// Tenant is the owning tenant's ID, or "" for the anonymous
	// single-tenant namespace. Only the owner can resolve the ref.
	Tenant string
	// Family is the owning watermark family's canonical name
	// (lwmapi.FamilySched for every pre-family entry).
	Family string
	// Text is the canonical design serialization (the family writer's
	// output).
	Text string
	// Artifact is the parsed, family-typed design.
	Artifact family.Design
	// Graph is the parsed cdfg with its PathOracle warmed for the
	// temporal-free and temporal longest-path queries detection runs.
	// Nil for families whose designs are not cdfg-backed (gcolor).
	Graph *cdfg.Graph
}

// Nodes returns the design's node (vertex) count.
func (d *Design) Nodes() int {
	if d.Artifact != nil {
		return d.Artifact.Nodes()
	}
	return d.Graph.Len()
}

// Counters is a snapshot of a Store's cumulative activity. Monotonic
// except Entries/Bytes/WALBytes, which are gauges.
type Counters struct {
	Hits        uint64 // Get calls that resolved
	Misses      uint64 // Get calls that did not
	Puts        uint64 // designs inserted (not refreshes of residents)
	Evictions   uint64 // designs dropped by LRU capacity pressure
	Compactions uint64 // WAL snapshot+truncate cycles
	Entries     int64  // resident designs
	Bytes       int64  // resident canonical text bytes
	WALBytes    int64  // current write-ahead log size (0 when in-memory)
}

// entry is one shard-resident design with its LRU links.
type entry struct {
	d          *Design
	prev, next *entry // LRU list: head = most recent, tail = next victim
}

// shard is one independently locked segment of the registry.
type shard struct {
	mu       sync.Mutex
	byRef    map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	capacity int
}

// tenantUsage is one tenant's resident footprint.
type tenantUsage struct {
	bytes, entries int64
}

// Store is the sharded registry. Safe for concurrent use.
type Store struct {
	cfg    Config
	shards []*shard
	wal    *wal.Log // nil when in-memory only

	usageMu sync.Mutex
	usage   map[string]tenantUsage // resident footprint per tenant ("" = anonymous)

	hits, misses, puts, evictions atomic.Uint64
	entries, bytes                atomic.Int64
}

// Open builds a Store and, when cfg.Dir is set, replays the snapshot
// and write-ahead log found there (ignoring a torn trailing record, the
// crash case). The returned store's hit/miss counters start at zero —
// replayed puts are not counted as traffic.
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	perShard := cfg.Capacity / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	s := &Store{
		cfg:    cfg,
		shards: make([]*shard, cfg.Shards),
		usage:  make(map[string]tenantUsage),
	}
	for i := range s.shards {
		s.shards[i] = &shard{byRef: make(map[string]*entry), capacity: perShard}
	}
	if cfg.Dir != "" {
		l, err := wal.Open(cfg.Dir, walFiles, cfg.MaxWALBytes, func(rec wal.Record) error {
			fam, tenant, canonical, err := decodeDesign(rec)
			if err != nil {
				return err
			}
			_, _, err = s.insertCanonical(fam, tenant, canonical)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.wal = l
	}
	return s, nil
}

// Close flushes and closes the write-ahead log. The store itself stays
// usable for in-memory reads; further puts on a closed persistent store
// return an error.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}

// Canonicalize parses text and re-serializes it into the canonical form
// the registry hashes, under the scheduling family. Exposed so callers
// can predict a ref without a store (lwm design ref could, and tests
// do).
func Canonicalize(text string) (string, error) {
	if strings.TrimSpace(text) == "" {
		return "", fmt.Errorf("store: empty design")
	}
	g, err := cdfg.Parse(strings.NewReader(text))
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := cdfg.Write(&sb, g); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// CanonicalizeFamily parses text with fam's codec and re-serializes it
// into the canonical form the registry hashes. fam "" means the
// scheduling family, whose errors and output match Canonicalize
// byte-for-byte.
func CanonicalizeFamily(fam, text string) (string, error) {
	if lwmapi.CanonicalFamily(fam) == lwmapi.FamilySched {
		return Canonicalize(text)
	}
	proto, err := family.Lookup(fam)
	if err != nil {
		return "", fmt.Errorf("store: %v", err)
	}
	if strings.TrimSpace(text) == "" {
		return "", fmt.Errorf("store: empty design")
	}
	d, err := proto.ParseDesign(text)
	if err != nil {
		return "", err
	}
	return d.Canonical(), nil
}

// RefOf returns the content-addressed reference of a canonical text.
func RefOf(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}

// RefOfOwned returns the tenant-namespaced reference of a canonical
// text: the tenant ID is folded into the hash (SHA-256 over
// "tenant\n" + canonical — unambiguous because tenant IDs never contain
// a newline), so the same design put by two tenants yields two
// unrelated refs and neither tenant can predict — let alone resolve —
// the other's. An empty tenant is the anonymous namespace and hashes
// exactly as RefOf always has, keeping pre-tenant WALs and clients
// valid.
func RefOfOwned(tenant, canonical string) string {
	if tenant == "" {
		return RefOf(canonical)
	}
	h := sha256.New()
	h.Write([]byte(tenant))
	h.Write([]byte{'\n'})
	h.Write([]byte(canonical))
	return hex.EncodeToString(h.Sum(nil))
}

// RefOfFamily returns the family- and tenant-namespaced reference of a
// canonical text. The scheduling family (fam "" or "sched") hashes
// exactly as RefOfOwned always has, keeping every pre-family ref, WAL,
// and client valid; any other family folds its name into the hash
// (SHA-256 over family + NUL + tenant + "\n" + canonical — unambiguous
// because family names never contain a NUL and tenant IDs never contain
// a newline), so the same text registered under two families yields two
// unrelated refs.
func RefOfFamily(fam, tenant, canonical string) string {
	fam = lwmapi.CanonicalFamily(fam)
	if fam == lwmapi.FamilySched {
		return RefOfOwned(tenant, canonical)
	}
	h := sha256.New()
	h.Write([]byte(fam))
	h.Write([]byte{0})
	h.Write([]byte(tenant))
	h.Write([]byte{'\n'})
	h.Write([]byte(canonical))
	return hex.EncodeToString(h.Sum(nil))
}

// ValidRef reports whether ref is syntactically a registry reference
// (64 lowercase hex digits).
func ValidRef(ref string) bool {
	if len(ref) != 64 {
		return false
	}
	for i := 0; i < len(ref); i++ {
		c := ref[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// shardFor picks the shard holding ref. FNV over the ref spreads the
// already-uniform hex evenly without caring that the ref is itself a
// hash.
func (s *Store) shardFor(ref string) *shard {
	h := fnv.New32a()
	h.Write([]byte(ref))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Put registers a design in the anonymous namespace. See PutOwned.
func (s *Store) Put(text string) (d *Design, created bool, err error) {
	return s.PutOwned("", text, 0, 0)
}

// PutOwned registers a design under a tenant's namespace: the text is
// canonicalized, hashed (with the tenant folded in — see RefOfOwned),
// parsed, and its oracle warmed. A design already resident is refreshed
// (moved to the front of its shard's LRU) and returned with
// created=false. With persistence on, a genuinely new design is
// appended to the write-ahead log before PutOwned returns.
//
// maxBytes/maxEntries, when positive, bound the tenant's resident
// footprint: a put that would exceed either returns ErrQuotaExceeded
// (refreshes of already-resident designs always pass — they add
// nothing). The check races only against the tenant's own concurrent
// puts, so enforcement is exact under serial use and off by at most the
// in-flight put count under contention.
func (s *Store) PutOwned(tenant, text string, maxBytes, maxEntries int64) (d *Design, created bool, err error) {
	return s.PutOwnedFamily(lwmapi.FamilySched, tenant, text, maxBytes, maxEntries)
}

// PutOwnedFamily registers a design of a watermark family under a
// tenant's namespace. fam "" means the scheduling family, for which
// this is exactly PutOwned — same canonicalization, same ref, same WAL
// record. Other families canonicalize through their own codec and get
// family-salted refs (RefOfFamily).
func (s *Store) PutOwnedFamily(fam, tenant, text string, maxBytes, maxEntries int64) (d *Design, created bool, err error) {
	fam = lwmapi.CanonicalFamily(fam)
	canonical, err := CanonicalizeFamily(fam, text)
	if err != nil {
		return nil, false, err
	}
	if maxBytes > 0 || maxEntries > 0 {
		ref := RefOfFamily(fam, tenant, canonical)
		sh := s.shardFor(ref)
		sh.mu.Lock()
		_, resident := sh.byRef[ref]
		sh.mu.Unlock()
		if !resident {
			s.usageMu.Lock()
			u := s.usage[tenant]
			over := (maxBytes > 0 && u.bytes+int64(len(canonical)) > maxBytes) ||
				(maxEntries > 0 && u.entries+1 > maxEntries)
			s.usageMu.Unlock()
			if over {
				return nil, false, fmt.Errorf("%w: tenant %q at %d bytes / %d entries",
					ErrQuotaExceeded, tenant, u.bytes, u.entries)
			}
		}
	}
	d, created, err = s.insertCanonical(fam, tenant, canonical)
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	if !created {
		return d, false, nil
	}
	// The design goes in before its append so that a compaction the
	// append triggers snapshots it; a failed append takes it back out,
	// so a retry logs it.
	if s.wal != nil {
		if err := s.wal.Append(designRecord(d), s.snapshotRecords); err != nil {
			s.drop(d)
			return nil, false, fmt.Errorf("%w: %w", ErrAppend, err)
		}
	}
	s.puts.Add(1)
	return d, true, nil
}

// insertCanonical inserts an already-canonical text under a tenant's
// namespace, building the shared graph outside the shard lock (parse +
// oracle warmup is the expensive half this registry exists to amortize;
// doing it unlocked keeps concurrent puts of different designs from
// serializing).
func (s *Store) insertCanonical(fam, tenant, canonical string) (*Design, bool, error) {
	fam = lwmapi.CanonicalFamily(fam)
	ref := RefOfFamily(fam, tenant, canonical)
	sh := s.shardFor(ref)

	// Fast path: already resident — refresh recency, done.
	sh.mu.Lock()
	if e, ok := sh.byRef[ref]; ok {
		sh.moveToFront(e)
		sh.mu.Unlock()
		return e.d, false, nil
	}
	sh.mu.Unlock()

	proto, err := family.Lookup(fam)
	if err != nil {
		return nil, false, err
	}
	art, err := proto.ParseDesign(canonical)
	if err != nil {
		return nil, false, fmt.Errorf("canonical text unparseable: %w", err)
	}
	d := &Design{Ref: ref, Tenant: tenant, Family: fam, Text: canonical, Artifact: art}
	if g, ok := family.CDFG(art); ok {
		warmOracle(g)
		d.Graph = g
	}

	sh.mu.Lock()
	if e, ok := sh.byRef[ref]; ok { // raced with another put of the same design
		sh.moveToFront(e)
		sh.mu.Unlock()
		return e.d, false, nil
	}
	e := &entry{d: d}
	sh.byRef[ref] = e
	sh.pushFront(e)
	var victim *entry
	if len(sh.byRef) > sh.capacity {
		victim = sh.tail
		sh.remove(victim)
		delete(sh.byRef, victim.d.Ref)
	}
	sh.mu.Unlock()

	s.account(d, 1)
	if victim != nil {
		s.account(victim.d, -1)
		s.evictions.Add(1)
	}
	return d, true, nil
}

// drop removes d if it is still resident, undoing its insertion.
func (s *Store) drop(d *Design) {
	sh := s.shardFor(d.Ref)
	sh.mu.Lock()
	e, ok := sh.byRef[d.Ref]
	ok = ok && e.d == d
	if ok {
		sh.remove(e)
		delete(sh.byRef, d.Ref)
	}
	sh.mu.Unlock()
	if ok {
		s.account(d, -1)
	}
}

// account adds (sign 1) or removes (sign -1) a resident design's share
// of the entry, byte and tenant-usage gauges.
func (s *Store) account(d *Design, sign int64) {
	s.entries.Add(sign)
	s.bytes.Add(sign * int64(len(d.Text)))
	s.addUsage(d.Tenant, sign*int64(len(d.Text)), sign)
}

// addUsage adjusts a tenant's resident footprint, dropping the map
// entry when it returns to zero.
func (s *Store) addUsage(tenant string, bytes, entries int64) {
	s.usageMu.Lock()
	u := s.usage[tenant]
	u.bytes += bytes
	u.entries += entries
	if u.bytes <= 0 && u.entries <= 0 {
		delete(s.usage, tenant)
	} else {
		s.usage[tenant] = u
	}
	s.usageMu.Unlock()
}

// Usage returns a tenant's current resident footprint ("" = anonymous).
func (s *Store) Usage(tenant string) (bytes, entries int64) {
	s.usageMu.Lock()
	u := s.usage[tenant]
	s.usageMu.Unlock()
	return u.bytes, u.entries
}

// Get resolves a reference in the anonymous namespace. See GetOwned.
func (s *Store) Get(ref string) (*Design, bool) {
	return s.GetOwned("", ref)
}

// GetOwned resolves a reference on a tenant's behalf, refreshing its
// recency. The boolean is false on a miss — never put, evicted, or
// owned by a different tenant. That last case is deliberately
// indistinguishable from plain absence: refs are tenant-salted hashes
// (RefOfOwned), so a cross-tenant probe can neither resolve a design
// nor learn that it exists.
func (s *Store) GetOwned(tenant, ref string) (*Design, bool) {
	sh := s.shardFor(ref)
	sh.mu.Lock()
	e, ok := sh.byRef[ref]
	if ok && e.d.Tenant != tenant {
		ok = false // owner mismatch is a plain miss; don't refresh the LRU
	}
	if ok {
		sh.moveToFront(e)
	}
	sh.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.d, true
}

// Len returns the resident design count.
func (s *Store) Len() int { return int(s.entries.Load()) }

// Counters returns the store's cumulative counters and gauges.
func (s *Store) Counters() Counters {
	c := Counters{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Evictions: s.evictions.Load(),
		Entries:   s.entries.Load(),
		Bytes:     s.bytes.Load(),
	}
	if s.wal != nil {
		c.WALBytes = s.wal.Size()
		c.Compactions = s.wal.Compactions()
	}
	return c
}

// snapshotRecords returns a record for every resident design,
// oldest-first per shard, for WAL compaction: replaying them in order
// reconstructs an equivalent resident set.
func (s *Store) snapshotRecords() []wal.Record {
	var recs []wal.Record
	for _, sh := range s.shards {
		sh.mu.Lock()
		for e := sh.tail; e != nil; e = e.prev {
			recs = append(recs, designRecord(e.d))
		}
		sh.mu.Unlock()
	}
	return recs
}

// warmOracle runs the longest-path queries detection and verification
// will ask first — the temporal-free and temporal variants of the
// default weighting — so a ref-resolved request starts on a hot cache.
// Warm failures are ignored: a graph that defeats the analysis simply
// starts cold and surfaces its error on first real use.
func warmOracle(g *cdfg.Graph) {
	o := g.Oracle()
	_, _, _ = o.Longest(cdfg.PathOpts{})
	_, _, _ = o.Longest(cdfg.PathOpts{IncludeTemporal: true})
}

// --- intrusive LRU list (shard lock held) ---

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.remove(e)
	sh.pushFront(e)
}

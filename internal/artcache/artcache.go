// Package artcache is a durable, content-addressed artifact store
// shared by every deterministic stage of the pipeline. Each artifact
// is keyed by (schema version, artifact kind, binary content hash,
// input, configuration); because every cached stage is a pure function
// of that tuple, an entry can be verified against its key and a valid
// hit is always byte-equivalent to recomputation. Stages do not call
// Get and Put themselves: each declares a Tier (tier.go), the one
// memory → disk → compute → publish lookup built on this store.
//
// Durability and sharing contract:
//
//   - Entries are published atomically: a writer streams into a
//     temporary file in the cache directory and renames it over the
//     final path, so a reader (same process, another goroutine, or
//     another process sharing the directory) only ever observes a
//     complete entry or none at all.
//   - Reads are verified: the entry header records the full key digest
//     and a SHA-256 of the payload. A truncated, bit-flipped or
//     foreign file is treated as a miss (and removed best-effort); the
//     caller recomputes and rewrites. Corruption can cost time, never
//     correctness.
//   - The store is size-bounded with LRU eviction: Get refreshes an
//     entry's mtime — at most once a second, so recency has one-second
//     resolution and a hot entry costs no write per read — and when
//     the resident bytes exceed MaxBytes the oldest entries are
//     deleted until the bound holds again. Eviction unlinks files; a
//     concurrent reader that already opened the entry keeps its
//     consistent view (POSIX), and one that lost the race simply
//     misses.
//   - Publishing is skipped when it would change nothing: Put reads
//     the entry first (counting no lookup) and leaves an identical
//     image in place, refreshing its recency as Get does.
//   - Versioned invalidation is by schema tag: the schema string is
//     folded into every key digest, so bumping it orphans every old
//     entry at once (the orphans age out through the LRU bound).
package artcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSchema tags the current on-disk key schema. Bump it whenever
// the meaning or serialisation of any cached artifact kind changes:
// every entry written under the old tag becomes unreachable (a miss)
// and is eventually evicted by the size bound.
const DefaultSchema = "janus-artcache/v1"

// DefaultMaxBytes bounds the store when Options.MaxBytes is zero.
const DefaultMaxBytes = 256 << 20

// Key identifies one artifact. All fields participate in the content
// digest; Kind additionally names the subdirectory the entry lives in,
// so it must be a short filepath-safe slug (letters, digits, '-', '.').
type Key struct {
	// Kind is the artifact type plus its serialisation version, e.g.
	// "native-v2".
	Kind string
	// Binary is the content fingerprint of the guest binary (and
	// library set) the artifact derives from.
	Binary string
	// Input discriminates artifacts of one binary (e.g. input set).
	Input string
	// Config captures every configuration knob the artifact depends on
	// (thread count, cost model, engine selection, ...).
	Config string
}

// Options configures Open.
type Options struct {
	// MaxBytes bounds the resident size of the store (0 = DefaultMaxBytes).
	MaxBytes int64
	// Schema overrides DefaultSchema (tests and forced invalidation).
	Schema string
}

// Stats is a point-in-time snapshot of cache counters.
type Stats struct {
	// Hits counts verified reads served from disk.
	Hits int64
	// Misses counts absent entries (including evicted and
	// schema-orphaned ones).
	Misses int64
	// Evictions counts entries removed by the size bound.
	Evictions int64
	// BadEntries counts entries rejected by verification (truncated,
	// bit-flipped, foreign, or undecodable; each was treated as a
	// miss and is also counted there) or found by their consumer to
	// describe something else than what the store holds (Tier.Replace).
	BadEntries int64
	// Kinds splits Hits and Misses by artifact kind, so what a render
	// read of each stage is observed rather than inferred from the
	// totals. Nil on a store nothing has looked up yet.
	Kinds map[string]KindStats
}

// KindStats are one artifact kind's lookup counters: the store's, and —
// once WithTiers folded them in — those of the stage's memory tier.
type KindStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	TierStats
}

// WithTiers returns s with each stage's memory-tier counters (a
// session's) beside its kind's store counters, so lookups that never
// reached the store are on the same line as those that did.
func (s Stats) WithTiers(tiers map[string]TierStats) Stats {
	kinds := make(map[string]KindStats, len(s.Kinds)+len(tiers))
	for k, ks := range s.Kinds {
		kinds[k] = ks
	}
	for k, ts := range tiers {
		ks := kinds[k]
		ks.TierStats = ts
		kinds[k] = ks
	}
	s.Kinds = kinds
	return s
}

// String renders the snapshot the way janus-bench prints it on stderr.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses, %d evictions, %d bad entries",
		s.Hits, s.Misses, s.Evictions, s.BadEntries)
}

// KindsString renders the per-kind split as janus-bench prints it on its
// second stderr line: "kind hits/lookups" in kind order, followed by the
// memory tier's counters where WithTiers supplied any.
func (s Stats) KindsString() string {
	kinds := make([]string, 0, len(s.Kinds))
	for k := range s.Kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for i, k := range kinds {
		if i > 0 {
			b.WriteString(", ")
		}
		ks := s.Kinds[k]
		fmt.Fprintf(&b, "%s %d/%d", k, ks.Hits, ks.Hits+ks.Misses)
		if ks.MemHits != 0 || ks.Computed != 0 {
			fmt.Fprintf(&b, " (mem %d, computed %d)", ks.MemHits, ks.Computed)
		}
	}
	return b.String()
}

// Cache is an open artifact store rooted at one directory. It is safe
// for concurrent use by multiple goroutines, and multiple processes
// may share one directory (each opens its own Cache).
type Cache struct {
	dir      string
	maxBytes int64
	schema   string

	// now is the eviction clock (a test hook; time.Now otherwise).
	now func() time.Time

	// mu serialises size accounting and eviction within this process.
	mu   sync.Mutex
	size int64

	hits, misses, evictions, bad atomic.Int64

	// kinds holds one record per artifact kind. It is an object of its
	// own so the cleanup that releases the records' held directories
	// when the Cache becomes unreachable can reach them without it.
	kinds *kindSet
}

// kindSet is a Cache's per-kind records.
type kindSet struct {
	mu sync.Mutex
	m  map[string]*kindCounters
}

// release lets go of every record's held directory.
func (ks *kindSet) release() {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	for _, kc := range ks.m {
		kc.held.release()
	}
}

// kindCounters is one artifact kind's record: the directory prefix its
// entry paths start with, computed once, the descriptor of that
// directory a hit opens its entry relative to where the system has one
// (read_linux.go), and its lookup counters.
type kindCounters struct {
	dir          string // the kind's subdirectory, separator included
	held         heldDir
	hits, misses atomic.Int64
}

// kind returns the record of one artifact kind.
func (c *Cache) kind(kind string) *kindCounters {
	ks := c.kinds
	ks.mu.Lock()
	defer ks.mu.Unlock()
	kc := ks.m[kind]
	if kc == nil {
		if ks.m == nil {
			ks.m = map[string]*kindCounters{}
		}
		kc = &kindCounters{dir: filepath.Join(c.dir, kindDir(kind)) + string(filepath.Separator)}
		ks.m[kind] = kc
	}
	return kc
}

// path locates the entry file of a key digest of this kind: one
// subdirectory per kind, file named by the digest.
func (kc *kindCounters) path(id [32]byte) string {
	var name [2*len(id) + len(".art")]byte
	hex.Encode(name[:], id[:])
	copy(name[2*len(id):], ".art")
	var b strings.Builder // one allocation, where dir + string(name[:]) makes two
	b.Grow(len(kc.dir) + len(name))
	b.WriteString(kc.dir)
	b.Write(name[:])
	return b.String()
}

// Open creates (if needed) and opens the store rooted at dir. The
// resident size is recomputed from the directory, so the LRU bound
// holds across process restarts and is shared with concurrent writers.
func Open(dir string, o Options) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("artcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artcache: %w", err)
	}
	c := &Cache{
		dir:      dir,
		maxBytes: o.MaxBytes,
		schema:   o.Schema,
		now:      time.Now,
		kinds:    &kindSet{},
	}
	runtime.AddCleanup(c, (*kindSet).release, c.kinds)
	if c.maxBytes <= 0 {
		c.maxBytes = DefaultMaxBytes
	}
	if c.schema == "" {
		c.schema = DefaultSchema
	}
	c.mu.Lock()
	c.size = c.scanSize()
	c.mu.Unlock()
	return c, nil
}

// shared deduplicates OpenShared instances per absolute directory, so
// every layer of one process (harness options, tier instances, CLI
// stats reporting) observes a single set of counters.
var shared struct {
	mu sync.Mutex
	m  map[string]*Cache
}

// OpenShared returns the process-wide Cache for dir, opening it with
// default Options on first use.
func OpenShared(dir string) (*Cache, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("artcache: %w", err)
	}
	shared.mu.Lock()
	defer shared.mu.Unlock()
	if c, ok := shared.m[abs]; ok {
		return c, nil
	}
	c, err := Open(abs, Options{})
	if err != nil {
		return nil, err
	}
	if shared.m == nil {
		shared.m = map[string]*Cache{}
	}
	shared.m[abs] = c
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		BadEntries: c.bad.Load(),
	}
	c.kinds.mu.Lock()
	defer c.kinds.mu.Unlock()
	for k, kc := range c.kinds.m {
		// A kind only Put so far has a record but no lookup to show.
		ks := KindStats{Hits: kc.hits.Load(), Misses: kc.misses.Load()}
		if ks.Hits == 0 && ks.Misses == 0 {
			continue
		}
		if s.Kinds == nil {
			s.Kinds = make(map[string]KindStats, len(c.kinds.m))
		}
		s.Kinds[k] = ks
	}
	return s
}

// Dir returns the root directory of the store.
func (c *Cache) Dir() string { return c.dir }

// ---------------------------------------------------------------------
// Entry format.
//
//	magic      [8]byte  "JANUSART"
//	keyID      [32]byte sha256 over length-prefixed (schema, kind,
//	                    binary, input, config)
//	payloadLen uint64   little-endian
//	payloadSHA [32]byte sha256 of payload
//	payload    [payloadLen]byte
// ---------------------------------------------------------------------

var magic = [8]byte{'J', 'A', 'N', 'U', 'S', 'A', 'R', 'T'}

const headerSize = 8 + 32 + 8 + 32

// keyID digests a key under the cache's schema tag. Fields are
// length-prefixed so no two distinct keys can collide by sliding bytes
// between fields.
func (c *Cache) keyID(k Key) [32]byte {
	var buf [512]byte
	b := buf[:0]
	for _, s := range [...]string{c.schema, k.Kind, k.Binary, k.Input, k.Config} {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	return sha256.Sum256(b)
}

// path locates the entry file for a key.
func (c *Cache) path(k Key) string { return c.kind(k.Kind).path(c.keyID(k)) }

// kindDir maps a kind to its subdirectory, folding any filepath-unsafe
// rune so a hostile kind string cannot escape the cache root.
func kindDir(kind string) string {
	if kind == "" {
		return "misc"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, kind)
}

// encode serialises payload into a complete entry image for k.
func (c *Cache) encode(k Key, payload []byte) []byte { return encodeEntry(c.keyID(k), payload) }

// encodeEntry serialises payload into a complete entry image for the
// key digest id.
func encodeEntry(id [32]byte, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out[0:8], magic[:])
	copy(out[8:40], id[:])
	binary.LittleEndian.PutUint64(out[40:48], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[48:80], sum[:])
	copy(out[80:], payload)
	return out
}

// decodeEntry verifies an entry image against the key digest id and
// returns the payload.
func decodeEntry(id [32]byte, data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("artcache: entry truncated: %d bytes", len(data))
	}
	if [8]byte(data[0:8]) != magic {
		return nil, fmt.Errorf("artcache: bad magic")
	}
	if [32]byte(data[8:40]) != id {
		return nil, fmt.Errorf("artcache: entry key mismatch")
	}
	n := binary.LittleEndian.Uint64(data[40:48])
	if n != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("artcache: payload length %d, file carries %d", n, len(data)-headerSize)
	}
	payload := data[headerSize:]
	if sha256.Sum256(payload) != [32]byte(data[48:80]) {
		return nil, fmt.Errorf("artcache: payload digest mismatch")
	}
	return payload, nil
}

// touchInterval is the resolution of LRU recency: an entry's mtime is
// refreshed only when it is at least this much older than the clock,
// so a store read many times a second costs one Chtimes a second per
// entry, not one per read.
const touchInterval = time.Second

// touch refreshes the LRU recency of the entry at p, whose mtime was
// read as mtime. Best-effort: a raced eviction or another process's
// concurrent rewrite only perturbs recency, never contents.
func (c *Cache) touch(p string, mtime time.Time) {
	if now := c.now(); now.Sub(mtime) >= touchInterval {
		_ = os.Chtimes(p, now, now)
	}
}

// Get returns the verified payload for k, or ok=false on a miss. A
// present-but-invalid entry (truncated, corrupted, written under
// another schema layout, or not an entry file at all) counts as a
// miss: it is removed best-effort so the caller's recompute-and-Put
// heals the store.
func (c *Cache) Get(k Key) ([]byte, bool) {
	id := c.keyID(k)
	kc := c.kind(k.Kind)
	p := kc.path(id)
	data, mtime, err := kc.read(p)
	if err != nil {
		c.misses.Add(1)
		kc.misses.Add(1)
		return nil, false
	}
	payload, err := decodeEntry(id, data)
	if err != nil {
		c.bad.Add(1)
		c.misses.Add(1)
		kc.misses.Add(1)
		c.removeEntry(p, int64(len(data)))
		return nil, false
	}
	c.hits.Add(1)
	kc.hits.Add(1)
	c.touch(p, mtime)
	return payload, true
}

// Put atomically publishes payload under k and enforces the size
// bound. An entry that already holds the identical image is left in
// place (its recency refreshed as Get refreshes it): renaming over an
// existing name costs a data flush on common filesystems, and the
// bytes would not change. Different bytes — a healed corruption, a
// Tier.Replace, a changed codec — are renamed over it. Concurrent
// writers for the same key (goroutines or processes) each publish a
// complete entry; whichever rename lands last wins, and both images
// verify identically because cached stages are deterministic.
func (c *Cache) Put(k Key, payload []byte) error {
	id := c.keyID(k)
	p := c.kind(k.Kind).path(id)
	img := encodeEntry(id, payload)
	if old, mtime, err := readEntry(p); err == nil && bytes.Equal(old, img) {
		c.touch(p, mtime)
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("artcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artcache: %w", err)
	}
	if _, err := tmp.Write(img); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artcache: %w", err)
	}
	now := c.now()
	_ = os.Chtimes(tmp.Name(), now, now)
	var prev int64
	if st, err := os.Stat(p); err == nil {
		prev = st.Size()
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artcache: %w", err)
	}
	c.mu.Lock()
	c.size += int64(len(img)) - prev
	if c.size > c.maxBytes {
		c.evictLocked()
	}
	c.mu.Unlock()
	return nil
}

// removeEntry unlinks an entry file and adjusts the size accounting.
func (c *Cache) removeEntry(path string, size int64) {
	if os.Remove(path) == nil {
		c.mu.Lock()
		c.size -= size
		if c.size < 0 {
			c.size = 0
		}
		c.mu.Unlock()
	}
}

// entryInfo is one on-disk entry during an eviction scan.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scanEntries walks the store and returns every entry file. Temp files
// mid-publication are skipped (they are renamed or removed by their
// writer).
func (c *Cache) scanEntries() []entryInfo {
	var out []entryInfo
	kinds, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		sub := filepath.Join(c.dir, kd.Name())
		files, err := os.ReadDir(sub)
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".art") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, entryInfo{
				path:  filepath.Join(sub, f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return out
}

// scanSize totals the resident entry bytes.
func (c *Cache) scanSize() int64 {
	var total int64
	for _, e := range c.scanEntries() {
		total += e.size
	}
	return total
}

// evictLocked removes least-recently-used entries until the resident
// size fits MaxBytes again. It rescans the directory first so
// concurrent processes sharing the store are accounted for; eviction
// order is mtime (Get refreshes it), ties broken by path so the order
// is deterministic. Callers hold c.mu.
func (c *Cache) evictLocked() {
	entries := c.scanEntries()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		// Unlink only: a reader that already opened this file keeps a
		// consistent snapshot; a later reader misses and recomputes.
		if err := os.Remove(e.path); err != nil && !os.IsNotExist(err) {
			continue
		}
		total -= e.size
		c.evictions.Add(1)
	}
	c.size = total
}

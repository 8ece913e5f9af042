package artcache

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Tier is the one lookup every cached pipeline stage goes through:
//
//	memory (bounded, singleflight) → disk (Cache) → compute → publish
//
// A stage declares an instance — its artifact kind, memory bound and
// payload codec — and supplies per call the memory key, the disk key
// and the computation. The stages are deterministic functions of
// their keys, which is what makes both tiers sound: a hit at either
// level is equivalent to recomputation.
//
// The memory tier has singleflight semantics: the first caller for a
// key runs the lookup, concurrent callers for the same key block on
// that one run and share its result, so concurrent experiments never
// duplicate work. Errors are cached like values (a deterministic
// stage would fail identically on retry).
//
// A Tier with a nil codec is memory-only (results with no serialised
// form); calling Disk directly skips the memory tier (results whose
// key is too wide to be worth holding in memory). The zero value is a
// ready, unbounded, memory-only tier.
type Tier[K comparable, V any] struct {
	// Kind is the version-tagged artifact kind stamped on every disk
	// key of this stage ("native-v1", ...). Any change to the payload
	// layout or to the semantics feeding it must bump the kind, which
	// orphans old entries: they stop matching and age out via LRU.
	Kind string
	// Limit bounds the number of memory entries (0 = unbounded); when
	// reached, completed entries are evicted. In-flight ones are kept,
	// so the run-exactly-once guarantee survives eviction.
	Limit int
	// Encode and Decode are the disk payload codec; both nil makes the
	// tier memory-only.
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)

	mu    sync.Mutex
	calls map[K]*call[V]

	memHits, computed, storeHits, storeMisses atomic.Int64
}

// TierStats are one tier's memory-side counters since it was made:
// beside the store's hits and misses they say where every lookup of a
// stage ended.
type TierStats struct {
	// MemHits counts lookups answered from memory, by a completed entry
	// or by joining one in flight.
	MemHits int64 `json:"mem_hits,omitempty"`
	// Computed counts the computations run: lookups that neither memory
	// nor the store could answer, bypasses included.
	Computed int64 `json:"computed,omitempty"`
	// StoreHits and StoreMisses count the tier's own store lookups, as
	// the store counts them (Cache.Get): its share of its kind's hits and
	// misses in a store other tiers may read too.
	StoreHits   int64 `json:"-"`
	StoreMisses int64 `json:"-"`
}

// Stats snapshots the tier's counters.
func (t *Tier[K, V]) Stats() TierStats {
	return TierStats{
		MemHits:     t.memHits.Load(),
		Computed:    t.computed.Load(),
		StoreHits:   t.storeHits.Load(),
		StoreMisses: t.storeMisses.Load(),
	}
}

// Has reports whether memory holds an entry for memKey, completed or in
// flight: whether a lookup made now would be a memory hit. It counts
// nothing.
func (t *Tier[K, V]) Has(memKey K) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.calls[memKey]
	return ok
}

// call is one in-flight or completed lookup.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errPanicked is handed to waiters whose shared computation panicked.
var errPanicked = errors.New("artcache: shared computation panicked")

// Do returns the result for memKey: from memory, by joining an
// in-flight lookup, or by running Disk(c, diskKey, compute) exactly
// once and remembering what it returned.
func (t *Tier[K, V]) Do(c *Cache, memKey K, diskKey func() (Key, bool), compute func() (V, error)) (V, error) {
	return t.Memo(memKey, func() (V, error) { return t.Disk(c, diskKey, compute) })
}

// Memo is the memory tier alone, around whatever lookup the stage makes
// beneath it (Do's is one Disk call; a stage that may have to repeat
// its disk lookup brings its own).
func (t *Tier[K, V]) Memo(memKey K, lookup func() (V, error)) (V, error) {
	t.mu.Lock()
	if t.calls == nil {
		t.calls = map[K]*call[V]{}
	}
	if cl, ok := t.calls[memKey]; ok {
		t.mu.Unlock()
		t.memHits.Add(1)
		<-cl.done
		return cl.val, cl.err
	}
	if t.Limit > 0 && len(t.calls) >= t.Limit {
		t.dropCompletedLocked()
	}
	cl := &call[V]{done: make(chan struct{})}
	t.calls[memKey] = cl
	t.mu.Unlock()
	completed := false
	defer func() {
		if completed {
			return
		}
		// The lookup panicked: drop the poisoned entry and release
		// waiters with an error instead of leaving them blocked forever
		// on done. The panic itself keeps propagating to this caller.
		t.mu.Lock()
		delete(t.calls, memKey)
		t.mu.Unlock()
		cl.err = errPanicked
		close(cl.done)
	}()
	cl.val, cl.err = lookup()
	completed = true
	close(cl.done)
	return cl.val, cl.err
}

// Disk is the lookup beneath the memory tier: a verified entry under
// diskKey is decoded and returned; otherwise compute runs and its
// result is published. It degrades to compute alone when there is no
// store (nil c), no codec, or no key — diskKey reports ok=false for
// results that must not be cached (it is only called when a store and
// a codec exist, so key derivation costs nothing otherwise). Compute
// errors propagate; encode and Put failures (a full or read-only
// disk) are swallowed — the cache must never turn a computable
// artifact into an error.
func (t *Tier[K, V]) Disk(c *Cache, diskKey func() (Key, bool), compute func() (V, error)) (V, error) {
	var k Key
	keyed := c != nil && t.Decode != nil
	if keyed {
		k, keyed = diskKey()
	}
	if keyed {
		k.Kind = t.Kind
		data, hit := c.Get(k)
		if !hit {
			t.storeMisses.Add(1)
		} else {
			t.storeHits.Add(1)
			if v, err := t.Decode(data); err == nil {
				return v, nil
			}
			// Verified entry with an undecodable payload: a schema skew the
			// kind tag failed to capture. Recompute and overwrite.
		}
	}
	t.computed.Add(1)
	v, err := compute()
	if err != nil || !keyed {
		return v, err
	}
	if data, err := t.Encode(v); err == nil {
		_ = c.Put(k, data)
	}
	return v, nil
}

// Replace overwrites the entry under k with v and counts the entry it
// replaces as bad: for a consumer that found a verified payload to
// describe something else than what the store holds (a recorded
// identity that is not its image's), which no read-side check can see.
// Like every publication it is best-effort; nil c is a no-op.
func (t *Tier[K, V]) Replace(c *Cache, k Key, v V) {
	if c == nil || t.Encode == nil {
		return
	}
	c.bad.Add(1)
	k.Kind = t.Kind
	if data, err := t.Encode(v); err == nil {
		_ = c.Put(k, data)
	}
}

func (t *Tier[K, V]) dropCompletedLocked() {
	for k, cl := range t.calls {
		select {
		case <-cl.done:
			delete(t.calls, k)
		default: // in flight: keep, so concurrent callers still join it
		}
	}
}

package artcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func mustOpen(t *testing.T, dir string, o Options) *Cache {
	t.Helper()
	c, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testKey(i int) Key {
	return Key{Kind: "test-v1", Binary: fmt.Sprintf("bin%d", i), Input: "train", Config: "threads=8"}
}

// rawTier returns a tier over raw payloads under testKey's kind, for
// driving the tiered lookup against hand-built entries.
func rawTier() *Tier[string, []byte] {
	return &Tier[string, []byte]{
		Kind:   "test-v1",
		Encode: func(b []byte) ([]byte, error) { return b, nil },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
}

func keyFn(k Key) func() (Key, bool) { return func() (Key, bool) { return k, true } }

// payloadFor derives a deterministic payload from a key, so any read
// can be verified against what its writer must have stored.
func payloadFor(k Key) []byte {
	return bytes.Repeat([]byte(k.Binary+"|"+k.Input+"|"+k.Config+"\n"), 8)
}

func TestPutGetRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(k, payloadFor(k)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, payloadFor(k)) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BadEntries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistinctKeyFieldsDistinctEntries(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	base := Key{Kind: "k-v1", Binary: "b", Input: "i", Config: "c"}
	variants := []Key{
		base,
		{Kind: "k-v2", Binary: "b", Input: "i", Config: "c"},
		{Kind: "k-v1", Binary: "B", Input: "i", Config: "c"},
		{Kind: "k-v1", Binary: "b", Input: "I", Config: "c"},
		{Kind: "k-v1", Binary: "b", Input: "i", Config: "C"},
		// Field-boundary slide: the length prefixes must keep these apart.
		{Kind: "k-v1", Binary: "bi", Input: "", Config: "c"},
	}
	for i, k := range variants {
		if err := c.Put(k, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range variants {
		got, ok := c.Get(k)
		if !ok || string(got) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("variant %d: got %q, %v", i, got, ok)
		}
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	k := testKey(1)
	c1 := mustOpen(t, dir, Options{})
	if err := c1.Put(k, payloadFor(k)); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, Options{})
	got, ok := c2.Get(k)
	if !ok || !bytes.Equal(got, payloadFor(k)) {
		t.Fatal("entry did not survive reopen")
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := testKey(1)
	if err := c.Put(k, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok || string(got) != "two" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	c.mu.Lock()
	size := c.size
	c.mu.Unlock()
	if want := int64(headerSize + 3); size != want {
		t.Fatalf("size accounting after overwrite = %d, want %d", size, want)
	}
}

// entryFile locates the single .art file of a one-entry cache.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(p) == ".art" {
			found = p
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no entry file under %s (err=%v)", dir, err)
	}
	return found
}

// TestCorruptEntryIsMissAndHeals is the adversarial contract: a
// bit-flipped payload is detected, treated as a miss, and transparently
// recomputed and rewritten by the tiered lookup.
func TestCorruptEntryIsMissAndHeals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bit-flip-payload", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }},
		{"bit-flip-header", func(b []byte) []byte { b[9] ^= 0x01; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated-below-header", func(b []byte) []byte { return b[:10] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"garbage", func(b []byte) []byte { return []byte("not an artifact at all") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir, Options{})
			k := testKey(7)
			want := payloadFor(k)
			if err := c.Put(k, want); err != nil {
				t.Fatal(err)
			}
			p := entryFile(t, dir)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(k); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if st := c.Stats(); st.BadEntries != 1 {
				t.Fatalf("BadEntries = %d, want 1", st.BadEntries)
			}
			// The recompute path heals the entry in place.
			recomputed := 0
			got, err := rawTier().Disk(c, keyFn(k), func() ([]byte, error) {
				recomputed++
				return want, nil
			})
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Disk = %q, %v", got, err)
			}
			if recomputed != 1 {
				t.Fatalf("recomputed %d times, want 1", recomputed)
			}
			if got, ok := c.Get(k); !ok || !bytes.Equal(got, want) {
				t.Fatal("rewrite after corruption did not stick")
			}
		})
	}
}

// TestWrongKeyFileIsRejected plants a valid entry image under the
// wrong key's path (e.g. a collision-free file move) and checks the
// key digest in the header rejects it.
func TestWrongKeyFileIsRejected(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	ka, kb := testKey(1), testKey(2)
	if err := c.Put(ka, []byte("a-payload")); err != nil {
		t.Fatal(err)
	}
	// Move a's entry file to b's path.
	if err := os.MkdirAll(filepath.Dir(c.path(kb)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path(ka), c.path(kb)); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(kb); ok {
		t.Fatalf("foreign entry served for key b: %q", got)
	}
}

// TestSchemaBumpInvalidatesEverything pins the versioned-invalidation
// contract: reopening the same directory under a bumped schema tag
// orphans every old entry at once.
func TestSchemaBumpInvalidatesEverything(t *testing.T) {
	dir := t.TempDir()
	v1 := mustOpen(t, dir, Options{Schema: "janus-artcache/v1"})
	const n = 16
	for i := 0; i < n; i++ {
		if err := v1.Put(testKey(i), payloadFor(testKey(i))); err != nil {
			t.Fatal(err)
		}
	}
	v2 := mustOpen(t, dir, Options{Schema: "janus-artcache/v2"})
	for i := 0; i < n; i++ {
		if _, ok := v2.Get(testKey(i)); ok {
			t.Fatalf("entry %d survived the schema bump", i)
		}
	}
	// The old entries are still reachable under the old tag (they age
	// out via the LRU bound, not the bump itself)...
	v1b := mustOpen(t, dir, Options{Schema: "janus-artcache/v1"})
	if _, ok := v1b.Get(testKey(0)); !ok {
		t.Fatal("schema bump destroyed old-tag entries outright")
	}
	// ...and the orphans still count against the new cache's size
	// bound, so they are evictable.
	small, err := Open(dir, Options{Schema: "janus-artcache/v2", MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Put(testKey(0), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Evictions == 0 {
		t.Fatal("orphaned old-schema entries were not evicted under the size bound")
	}
}

// TestConcurrentGoroutinesShareDir hammers one directory from many
// goroutines through two independently opened Cache values (as two
// janusd replicas would), verifying under -race that every hit returns
// exactly the bytes its key demands.
func TestConcurrentGoroutinesShareDir(t *testing.T) {
	dir := t.TempDir()
	c1 := mustOpen(t, dir, Options{})
	c2 := mustOpen(t, dir, Options{})
	const workers = 8
	const rounds = 60
	const keys = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		c := c1
		if w%2 == 1 {
			c = c2
		}
		wg.Add(1)
		go func(w int, c *Cache) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := testKey((w + r) % keys)
				want := payloadFor(k)
				if (w+r)%3 == 0 {
					if err := c.Put(k, want); err != nil {
						errs <- err
						return
					}
				}
				if got, ok := c.Get(k); ok && !bytes.Equal(got, want) {
					errs <- fmt.Errorf("worker %d round %d: wrong payload for %v", w, r, k)
					return
				}
			}
		}(w, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestOpenSharedDedups(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("OpenShared returned two instances for one directory")
	}
	if err := a.Put(testKey(1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get(testKey(1)); !ok {
		t.Fatal("shared instance does not see the write")
	}
}

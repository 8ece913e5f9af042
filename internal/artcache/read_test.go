package artcache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// readCase is one state of an entry's path and what a Get of it must
// come to.
type readCase struct {
	name string
	// setup leaves the path in the case's state; img is a valid image
	// of the key, mtime is the one a file it writes carries.
	setup func(t *testing.T, p string, img []byte, mtime time.Time)
	// age is how long before the clock the file's mtime lies.
	age     time.Duration
	hit     bool
	bad     bool // counted as a bad entry and removed
	kept    bool // the path still exists after the Get
	touched bool // the hit refreshed the entry's mtime to the clock
}

// writeAt writes data to p with mtime mtime.
func writeAt(t *testing.T, p string, data []byte, mtime time.Time) {
	t.Helper()
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(p, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

var readCases = []readCase{
	{name: "missing", setup: func(*testing.T, string, []byte, time.Time) {}},
	{name: "directory", setup: func(t *testing.T, p string, _ []byte, _ time.Time) {
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}, kept: true},
	{name: "empty", setup: func(t *testing.T, p string, _ []byte, mtime time.Time) {
		writeAt(t, p, nil, mtime)
	}, bad: true},
	{name: "truncated", setup: func(t *testing.T, p string, img []byte, mtime time.Time) {
		writeAt(t, p, img[:len(img)-1], mtime)
	}, bad: true},
	{name: "foreign", setup: func(t *testing.T, p string, _ []byte, mtime time.Time) {
		writeAt(t, p, []byte("not an entry"), mtime)
	}, bad: true},
	{name: "valid-fresh", setup: func(t *testing.T, p string, img []byte, mtime time.Time) {
		writeAt(t, p, img, mtime)
	}, age: touchInterval / 2, hit: true, kept: true},
	{name: "valid-stale", setup: func(t *testing.T, p string, img []byte, mtime time.Time) {
		writeAt(t, p, img, mtime)
	}, age: touchInterval, hit: true, kept: true, touched: true},
}

// checkRead puts p in rc's state, looks k up and fails unless the
// outcome, the counters and what is left at p are rc's.
func checkRead(t *testing.T, c *Cache, k Key, payload []byte, rc readCase) {
	t.Helper()
	p := c.path(k)
	now := c.now()
	// Whatever an earlier case left, a file or an empty directory.
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	rc.setup(t, p, c.encode(k, payload), now.Add(-rc.age))
	before := c.Stats()
	got, hit := c.Get(k)
	after := c.Stats()
	if hit != rc.hit || (hit && !bytes.Equal(got, payload)) {
		t.Fatalf("%s: Get hit %t (%q), want %t", rc.name, hit, got, rc.hit)
	}
	hits, misses, bad := after.Hits-before.Hits, after.Misses-before.Misses, after.BadEntries-before.BadEntries
	if want := map[bool]int64{true: 1}; hits != want[rc.hit] || misses != want[!rc.hit] || bad != want[rc.bad] {
		t.Fatalf("%s: counted %d hits, %d misses, %d bad", rc.name, hits, misses, bad)
	}
	st, err := os.Stat(p)
	if kept := err == nil; kept != rc.kept {
		t.Fatalf("%s: path kept %t (%v), want %t", rc.name, kept, err, rc.kept)
	}
	if rc.hit {
		want := now.Add(-rc.age)
		if rc.touched {
			want = now
		}
		if !st.ModTime().Equal(want) {
			t.Fatalf("%s: mtime %v after the hit, want %v", rc.name, st.ModTime(), want)
		}
	}
}

// TestReadOutcomes: what Get makes of each state an entry's path can be
// in — nothing, a directory, an empty, truncated or foreign file, or a
// valid entry whose fstat'd mtime decides whether the hit touches it.
func TestReadOutcomes(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	clock := time.Unix(1_700_000_000, 0)
	c.now = func() time.Time { return clock }
	k := testKey(1)
	payload := payloadFor(k)
	if err := os.MkdirAll(filepath.Dir(c.path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, rc := range readCases {
		checkRead(t, c, k, payload, rc)
	}
}

package artcache

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// mtimeOf reads an entry file's mtime.
func mtimeOf(t *testing.T, p string) time.Time {
	t.Helper()
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	return st.ModTime()
}

// TestGetRefreshesRecencyOncePerSecond: a hit less than a second after
// the entry's last touch leaves its mtime alone; a hit a second or more
// after it refreshes the mtime to the clock.
func TestGetRefreshesRecencyOncePerSecond(t *testing.T) {
	clk := newFakeClock()
	c := mustOpen(t, t.TempDir(), Options{})
	c.now = clk.next
	putN(t, c, 0)
	p := c.path(evictKey(0))
	touched := mtimeOf(t, p)

	for _, d := range []time.Duration{0, time.Millisecond, 999 * time.Millisecond} {
		c.now = func() time.Time { return touched.Add(d) }
		if !has(c, 0) {
			t.Fatal("entry missing")
		}
		if got := mtimeOf(t, p); !got.Equal(touched) {
			t.Fatalf("Get %v after the last touch moved mtime %v → %v", d, touched, got)
		}
	}
	for _, d := range []time.Duration{time.Second, 2 * time.Second} {
		now := touched.Add(d)
		c.now = func() time.Time { return now }
		if !has(c, 0) {
			t.Fatal("entry missing")
		}
		if got := mtimeOf(t, p); !got.Equal(now) {
			t.Fatalf("Get %v after the last touch left mtime at %v, want %v", d, got, now)
		}
		touched = now
	}
}

// TestPutKeepsIdenticalEntry: a second Put of the same payload leaves
// the published file in place (and counts no lookup), while a different
// payload replaces it.
func TestPutKeepsIdenticalEntry(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := testKey(1)
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := c.path(k)
	first, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	again, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(first, again) {
		t.Fatal("an identical Put republished the entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Put counted lookups: %v", st)
	}

	if err := c.Put(k, []byte("another payload")); err != nil {
		t.Fatal(err)
	}
	replaced, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(first, replaced) {
		t.Fatal("a Put of different bytes left the old entry in place")
	}
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, []byte("another payload")) {
		t.Fatalf("Get after replacement = %q, %v", got, ok)
	}
	c.mu.Lock()
	size := c.size
	c.mu.Unlock()
	if want := entrySize(len("another payload")); size != want {
		t.Fatalf("resident size %d after replacement, want %d", size, want)
	}
}

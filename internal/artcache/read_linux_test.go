package artcache

import (
	"bytes"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestWarmGetAllocations: a warm Get of a small entry allocates the
// entry path, the path's NUL-terminated copy for open(2) and the image
// — no *os.File, no fstat record, no per-lookup directory join.
func TestWarmGetAllocations(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	clock := time.Unix(1_700_000_000, 0)
	c.now = func() time.Time { return clock } // no hit is old enough to touch
	k := testKey(1)
	payload := bytes.Repeat([]byte{0xa5}, 200)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, ok := c.Get(k); !ok || !bytes.Equal(got, payload) {
			t.Fatal("warm Get missed")
		}
	})
	if allocs > 3 {
		t.Fatalf("a warm Get makes %.0f allocations, want at most 3", allocs)
	}
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(fds)
}

// TestReadClosesEveryDescriptor: a thousand lookups over every outcome
// of TestReadOutcomes leave the process's open-descriptor count where
// it was — each path out of readEntry closes what it opened.
func TestReadClosesEveryDescriptor(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	clock := time.Unix(1_700_000_000, 0)
	c.now = func() time.Time { return clock }
	k := testKey(1)
	payload := payloadFor(k)
	if err := os.MkdirAll(filepath.Dir(c.path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	before := openFDs(t)
	for i := 0; i < 1000; i++ {
		checkRead(t, c, k, payload, readCases[i%len(readCases)])
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d open descriptors after 1000 lookups, %d before", after, before)
	}
}

// TestIgnoringEINTR: a call interrupted by a signal is made again, and
// any other outcome is returned as it is.
func TestIgnoringEINTR(t *testing.T) {
	calls := 0
	v, err := ignoringEINTR(func() (int, error) {
		calls++
		if calls < 3 {
			return -1, syscall.EINTR
		}
		return 7, nil
	})
	if v != 7 || err != nil || calls != 3 {
		t.Fatalf("got (%d, %v) after %d calls, want (7, nil) after 3", v, err, calls)
	}
	calls = 0
	if _, err := ignoringEINTR(func() (int, error) { calls++; return -1, syscall.ENOENT }); err != syscall.ENOENT || calls != 1 {
		t.Fatalf("got %v after %d calls, want ENOENT after 1", err, calls)
	}
}

package artcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
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

// TestReadClosesEveryDescriptor: a thousand lookups over every outcome
// of TestReadOutcomes leave the count of the process's open descriptors
// of files in the store where it was — each path out of readEntry
// closes what it opened. The count is taken after one hit of the kind,
// which opens the descriptor of the kind's directory that the store
// then holds. (Only the store's are counted: other tests' stores
// release theirs whenever the collector finds them unreachable.)
func TestReadClosesEveryDescriptor(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	clock := time.Unix(1_700_000_000, 0)
	c.now = func() time.Time { return clock }
	k := testKey(1)
	payload := payloadFor(k)
	if err := os.MkdirAll(filepath.Dir(c.path(k)), 0o755); err != nil {
		t.Fatal(err)
	}
	checkRead(t, c, k, payload, readCases[len(readCases)-1])
	before := fdsUnder(t, dir)
	if before != 1 {
		t.Fatalf("%d descriptors open in the store after a hit, want its kind's directory alone", before)
	}
	for i := 0; i < 1000; i++ {
		checkRead(t, c, k, payload, readCases[i%len(readCases)])
	}
	if after := fdsUnder(t, dir); after != before {
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

// TestReplacedKindDirectory: after a hit, the kind's directory is
// removed and made again and a new payload is put: the next Get reads
// the new directory's entry, not the held one's.
func TestReplacedKindDirectory(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	k := testKey(1)
	if err := c.Put(k, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(k); !ok || string(got) != "old" {
		t.Fatalf("first Get: %q, %t", got, ok)
	}
	dir := filepath.Dir(c.path(k))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k, []byte("new")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second through the re-opened directory
		if got, ok := c.Get(k); !ok || string(got) != "new" {
			t.Fatalf("Get %d after the directory was replaced: %q, %t", i, got, ok)
		}
	}
	if st := c.Stats(); st.Hits != 3 || st.Misses != 0 || st.BadEntries != 0 {
		t.Fatalf("counted %s", st)
	}
}

// TestHeldDirectoriesReleased: the directory descriptors a Cache holds
// are closed once the Cache is unreachable.
func TestHeldDirectoriesReleased(t *testing.T) {
	dir := t.TempDir()
	func() {
		c := mustOpen(t, dir, Options{})
		for i := 0; i < 3; i++ {
			k := testKey(i)
			k.Kind = fmt.Sprintf("kind-%d", i)
			if err := c.Put(k, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); !ok {
				t.Fatal("miss")
			}
		}
		if n := fdsUnder(t, dir); n != 3 {
			t.Fatalf("%d descriptors open under the store after a hit of each of 3 kinds, want 3", n)
		}
	}()
	for i := 0; i < 500 && fdsUnder(t, dir) != 0; i++ { // up to 5 s
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := fdsUnder(t, dir); n != 0 {
		t.Fatalf("%d descriptors open under the store after the Cache went unreachable", n)
	}
}

// fdsUnder counts the process's open descriptors of files under dir.
func fdsUnder(t *testing.T, dir string) int {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestConcurrentHitsAcrossReplacedDirectory: readers hit one entry
// while its kind's directory is removed, made again and refilled under
// them. Every hit is the entry's payload, none is counted bad, and
// afterwards the store holds one descriptor: the directory now there.
func TestConcurrentHitsAcrossReplacedDirectory(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, Options{})
	k := testKey(1)
	payload := payloadFor(k)
	if err := c.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	kindDir := filepath.Dir(c.path(k))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := c.Get(k); ok && !bytes.Equal(got, payload) {
					t.Errorf("hit returned %q", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := os.RemoveAll(kindDir); err != nil {
			t.Error(err)
			break
		}
		if err := c.Put(k, payload); err != nil {
			t.Error(err)
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got, ok := c.Get(k); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after the replacements: %q, %t", got, ok)
	}
	if st := c.Stats(); st.BadEntries != 0 || st.Hits == 0 {
		t.Fatalf("counted %s", st)
	}
	if n := fdsUnder(t, dir); n != 1 {
		t.Fatalf("%d descriptors open in the store, want the kind directory's alone", n)
	}
}

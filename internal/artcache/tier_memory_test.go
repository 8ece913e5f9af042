package artcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoCachesResult(t *testing.T) {
	var f Tier[string, int]
	runs := 0
	for i := 0; i < 3; i++ {
		v, err := f.Do(nil, "k", nil, func() (int, error) { runs++; return 42, nil })
		if err != nil || v != 42 {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if runs != 1 {
		t.Fatalf("fn ran %d times, want 1", runs)
	}
}

func TestDoCachesError(t *testing.T) {
	var f Tier[string, int]
	boom := errors.New("boom")
	runs := 0
	for i := 0; i < 2; i++ {
		if _, err := f.Do(nil, "k", nil, func() (int, error) { runs++; return 0, boom }); err != boom {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if runs != 1 {
		t.Fatalf("erroring fn ran %d times, want 1 (errors are deterministic here)", runs)
	}
}

// TestConcurrentCallersJoinOneRun blocks the first computation until
// every other caller is waiting on it, then checks that exactly one run
// happened and all callers saw its result.
func TestConcurrentCallersJoinOneRun(t *testing.T) {
	var f Tier[string, int]
	const callers = 8
	var runs atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := f.Do(nil, "k", nil, func() (int, error) {
				runs.Add(1)
				<-release
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Wait until the single in-flight run is registered, then let every
	// other caller pile onto it before releasing.
	for {
		f.mu.Lock()
		n := len(f.calls)
		f.mu.Unlock()
		if n == 1 {
			break
		}
	}
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

// TestEvictionKeepsInFlight fills a Limit-1 flight with a completed
// entry and an in-flight one, triggers eviction with a third key, and
// checks the in-flight entry still dedups joiners.
func TestEvictionKeepsInFlight(t *testing.T) {
	f := Tier[string, int]{Limit: 1}
	if _, err := f.Do(nil, "done", nil, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Do(nil, "inflight", nil, func() (int, error) {
			runs.Add(1)
			close(started)
			<-release
			return 2, nil
		})
	}()
	<-started
	// Over the limit: this must evict "done" but keep "inflight".
	if _, err := f.Do(nil, "evictor", nil, func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
	// A joiner for the in-flight key must not start a second run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := f.Do(nil, "inflight", nil, func() (int, error) {
			runs.Add(1)
			return -1, nil
		})
		if err != nil || v != 2 {
			t.Errorf("joiner got %d, %v", v, err)
		}
	}()
	f.mu.Lock()
	if _, kept := f.calls["inflight"]; !kept {
		f.mu.Unlock()
		t.Fatal("eviction dropped the in-flight entry")
	}
	f.mu.Unlock()
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("in-flight fn ran %d times, want 1", got)
	}
	// The completed entry was evicted: a re-Do recomputes.
	v, err := f.Do(nil, "done", nil, func() (int, error) { return 10, nil })
	if err != nil || v != 10 {
		t.Fatalf("re-Do after eviction = %d, %v", v, err)
	}
}

// TestPanicReleasesWaiters pins the panic contract: the panicking
// caller sees the panic, a concurrent caller either joins the doomed
// run (and gets an error) or arrives after cleanup (and recomputes) —
// but never blocks forever — and the key is reusable afterwards.
func TestPanicReleasesWaiters(t *testing.T) {
	var f Tier[string, int]
	started := make(chan struct{})
	var waiterVal int
	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		waiterVal, waiterErr = f.Do(nil, "k", nil, func() (int, error) { return 5, nil })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the running caller")
			}
		}()
		f.Do(nil, "k", nil, func() (int, error) {
			close(started)
			panic("boom")
		})
	}()
	wg.Wait() // must not deadlock: done is closed (or entry dropped) on panic
	if waiterErr == nil && waiterVal != 5 {
		t.Fatalf("waiter got (%d, nil): neither the panic error nor its own recomputation", waiterVal)
	}
	// The poisoned entry was dropped: the key works again, returning
	// either the waiter's cached recomputation (5) or a fresh run (9).
	v, err := f.Do(nil, "k", nil, func() (int, error) { return 9, nil })
	if err != nil || (v != 9 && v != 5) {
		t.Fatalf("re-Do after panic = %d, %v", v, err)
	}
}

package janus

import (
	"sync"
	"sync/atomic"
	"testing"

	"janus/internal/artcache"
	"janus/internal/obj"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// TestLibsKeyOf pins the overflow contract of the memo key: up to four
// libraries fold into a comparable key, more must report !ok so the
// callers fall back to an uncached run instead of aliasing keys.
func TestLibsKeyOf(t *testing.T) {
	mk := func(n int) []*obj.Library {
		libs := make([]*obj.Library, n)
		for i := range libs {
			libs[i] = &obj.Library{Name: "l"}
		}
		return libs
	}
	for n := 0; n <= 5; n++ {
		k, ok := libsKeyOf(mk(n))
		if wantOK := n <= 4; ok != wantOK {
			t.Fatalf("libsKeyOf(%d libs) ok = %v, want %v", n, ok, wantOK)
		}
		if !ok {
			continue
		}
		// The key must carry exactly the first n pointers, zero-padded.
		for i := 0; i < len(k); i++ {
			if (i < n) != (k[i] != nil) {
				t.Fatalf("libsKeyOf(%d libs) slot %d = %v", n, i, k[i])
			}
		}
	}
	// Distinct library sets of equal length must produce distinct keys.
	a, _ := libsKeyOf(mk(2))
	b, _ := libsKeyOf(mk(2))
	if a == b {
		t.Fatal("two distinct pointer sets folded to the same key")
	}
}

// TestNativeMemoOverflowBypassesCache proves the >4-libraries fallback
// really is uncached: two calls with five libraries execute natively
// twice (distinct result pointers), while the same program with one
// library is memoised (same pointer).
func TestNativeMemoOverflowBypassesCache(t *testing.T) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	if len(libs) != 1 {
		t.Fatalf("expected one math library, got %d", len(libs))
	}
	r1, err := RunNativeBaselineCached(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunNativeBaselineCached(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("<=4 libs: second run was not served from the memo")
	}

	// Pad to five: four extra unused (never-called) libraries mapped at
	// distinct bases. The VM only needs them resolvable, not called.
	many := append([]*obj.Library{}, libs...)
	base := uint64(0x7f10_0000_0000)
	for i := 0; i < 4; i++ {
		many = append(many, &obj.Library{Name: "pad", Base: base, Code: make([]byte, 24)})
		base += 0x1_0000_0000
	}
	o1, err := RunNativeBaselineCached(nil, exe, many...)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := RunNativeBaselineCached(nil, exe, many...)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal(">4 libs: runs shared a result pointer, expected the uncached path")
	}
	if o1.Cycles != r1.Cycles || o1.DataHash != r1.DataHash {
		t.Fatalf("unused pad libraries changed the result: %+v vs %+v", o1, r1)
	}
}

// TestMemoEvictionKeepsInFlight fills a native-shaped tier to memoLimit
// while one computation is blocked in flight, forces eviction past the
// limit, and verifies the in-flight entry still deduplicates joiners
// (the run-exactly-once guarantee survives eviction pressure).
func TestMemoEvictionKeepsInFlight(t *testing.T) {
	// A private memory tier with the production limit: the package-level
	// tiers are shared with other tests, so pressure is applied to an
	// identically-bounded instance.
	f := artcache.Tier[runKey, *vm.Result]{Limit: memoLimit}
	dummy := func(i int) runKey { return runKey{exe: &obj.Executable{Entry: uint64(i)}} }

	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	inflight := dummy(-1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Do(nil, inflight, nil, func() (*vm.Result, error) {
			runs.Add(1)
			close(started)
			<-release
			return &vm.Result{Exit: 7}, nil
		})
	}()
	<-started

	// Flood past the limit: every completed entry becomes evictable,
	// and eviction triggers each time the table is full.
	for i := 0; i < 3*memoLimit; i++ {
		if _, err := f.Do(nil, dummy(i), nil, func() (*vm.Result, error) { return &vm.Result{}, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// The blocked computation must still be joinable, not restarted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := f.Do(nil, inflight, nil, func() (*vm.Result, error) {
			runs.Add(1)
			return &vm.Result{Exit: -1}, nil
		})
		if err != nil || res.Exit != 7 {
			t.Errorf("joiner got %+v, %v; want the in-flight result", res, err)
		}
	}()
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("in-flight computation ran %d times under eviction pressure, want 1", got)
	}
}

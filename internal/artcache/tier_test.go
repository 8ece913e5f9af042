package artcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestTierDiskPropagatesComputeError: a failed computation is returned
// as is and publishes nothing.
func TestTierDiskPropagatesComputeError(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	wantErr := fmt.Errorf("boom")
	if _, err := rawTier().Disk(c, keyFn(testKey(1)), func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("failed compute left an entry behind")
	}
}

// TestTierDiskBypasses pins the three degradations of the disk step:
// no store, no codec and no key each run compute and touch nothing.
func TestTierDiskBypasses(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	noKey := func() (Key, bool) { return Key{}, false }
	mustNotKey := func() (Key, bool) { t.Error("disk key derived with nothing to look up"); return Key{}, false }
	var memOnly Tier[string, []byte]
	for name, lookup := range map[string]func(func() ([]byte, error)) ([]byte, error){
		"nil-cache": func(f func() ([]byte, error)) ([]byte, error) { return rawTier().Disk(nil, mustNotKey, f) },
		"no-codec":  func(f func() ([]byte, error)) ([]byte, error) { return memOnly.Disk(c, mustNotKey, f) },
		"no-key":    func(f func() ([]byte, error)) ([]byte, error) { return rawTier().Disk(c, noKey, f) },
	} {
		runs := 0
		for i := 0; i < 2; i++ {
			got, err := lookup(func() ([]byte, error) { runs++; return []byte("v"), nil })
			if err != nil || string(got) != "v" {
				t.Fatalf("%s: %q, %v", name, got, err)
			}
		}
		if runs != 2 {
			t.Fatalf("%s: compute ran %d times, want 2 (nothing may be cached)", name, runs)
		}
	}
	if st := c.Stats(); st.Kinds != nil || st.String() != (Stats{}).String() {
		t.Fatalf("bypassed lookups touched the store: %s", st)
	}
}

// TestTierUndecodableVerifiedPayloadIsOverwritten: an entry that
// passes verification but whose payload the codec rejects (schema skew
// the kind tag missed) is recomputed and replaced, not served and not
// counted as corruption.
func TestTierUndecodableVerifiedPayloadIsOverwritten(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	strict := Tier[string, []byte]{
		Kind:   "test-v1",
		Encode: func(b []byte) ([]byte, error) { return b, nil },
		Decode: func(b []byte) ([]byte, error) {
			if !bytes.HasPrefix(b, []byte("ok:")) {
				return nil, errors.New("stale layout")
			}
			return b, nil
		},
	}
	k := testKey(3)
	if err := c.Put(k, []byte("old layout")); err != nil {
		t.Fatal(err)
	}
	runs := 0
	compute := func() ([]byte, error) { runs++; return []byte("ok:fresh"), nil }
	if got, err := strict.Do(c, "k", keyFn(k), compute); err != nil || string(got) != "ok:fresh" {
		t.Fatalf("Do = %q, %v", got, err)
	}
	if st := c.Stats(); st.Hits != 1 || st.BadEntries != 0 {
		t.Fatalf("stale payload must read as a verified hit, not corruption: %s", st)
	}
	if got, err := strict.Do(c, "k2", keyFn(k), compute); err != nil || string(got) != "ok:fresh" {
		t.Fatalf("second Do = %q, %v", got, err)
	}
	if runs != 1 {
		t.Fatalf("compute ran %d times, want 1: the overwrite did not stick", runs)
	}
}

// TestTierPanicWithDiskReleasesWaiters is TestPanicReleasesWaiters
// with a store attached: the panic unwinds through the disk step, the
// waiter is released, nothing is published and the key works again.
func TestTierPanicWithDiskReleasesWaiters(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	tier := rawTier()
	k := testKey(4)
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-started
		got, err := tier.Do(c, "k", keyFn(k), func() ([]byte, error) { return []byte("late"), nil })
		if err == nil && string(got) != "late" {
			t.Errorf("waiter got (%q, nil): neither the panic error nor its own recomputation", got)
		}
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the running caller")
			}
		}()
		tier.Do(c, "k", keyFn(k), func() ([]byte, error) {
			close(started)
			panic("boom")
		})
	}()
	wg.Wait() // must not deadlock
	if got, err := tier.Do(c, "k", keyFn(k), func() ([]byte, error) { return []byte("late"), nil }); err != nil || string(got) != "late" {
		t.Fatalf("re-Do after panic = %q, %v", got, err)
	}
}

// TestStatsSplitByKind: every lookup is counted under its kind as well
// as in the totals, a rejected entry as a miss of its kind, and the
// split renders in kind order as hits/lookups.
func TestStatsSplitByKind(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	a, b := Key{Kind: "a-v1", Binary: "x"}, Key{Kind: "b-v1", Binary: "x"}
	c.Get(a)
	if err := c.Put(a, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	c.Get(a)
	c.Get(a)
	c.Get(b)
	if err := c.Put(b, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(b), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	c.Get(b)
	st := c.Stats()
	want := map[string]KindStats{"a-v1": {Hits: 2, Misses: 1}, "b-v1": {Misses: 2}}
	if !reflect.DeepEqual(st.Kinds, want) || st.Hits != 2 || st.Misses != 3 || st.BadEntries != 1 {
		t.Fatalf("stats %s, kinds %v; want kinds %v", st, st.Kinds, want)
	}
	if got := st.KindsString(); got != "a-v1 2/3, b-v1 0/2" {
		t.Fatalf("KindsString() = %q", got)
	}
}

// TestTierReplace: a consumer that found a verified entry to describe
// something else overwrites it and has it counted as bad; the next
// lookup is a hit on the replacement.
func TestTierReplace(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	tier := Tier[struct{}, []byte]{
		Kind:   "test-v1",
		Encode: func(b []byte) ([]byte, error) { return b, nil },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
	key := func() (Key, bool) { return Key{Binary: "x"}, true }
	if _, err := tier.Disk(c, key, func() ([]byte, error) { return []byte("wrong"), nil }); err != nil {
		t.Fatal(err)
	}
	tier.Replace(c, Key{Binary: "x"}, []byte("right"))
	tier.Replace(nil, Key{Binary: "x"}, []byte("no store: no-op"))
	got, err := tier.Disk(c, key, func() ([]byte, error) { return nil, errors.New("recomputed") })
	if err != nil || string(got) != "right" {
		t.Fatalf("lookup after Replace: %q, %v", got, err)
	}
	if st := c.Stats(); st.BadEntries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after Replace: %s", st)
	}
}

// TestTierHas: Has says whether a lookup would be a memory hit — an
// entry completed or in flight — and counts nothing itself.
func TestTierHas(t *testing.T) {
	var tier Tier[string, int]
	if tier.Has("k") {
		t.Fatal("an empty tier has an entry")
	}
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tier.Do(nil, "k", nil, func() (int, error) { close(started); <-release; return 1, nil })
	}()
	<-started
	if !tier.Has("k") {
		t.Fatal("an entry in flight is not in memory")
	}
	close(release)
	<-done
	if !tier.Has("k") || tier.Has("other") {
		t.Fatal("Has does not follow the completed entries")
	}
	if st := tier.Stats(); st != (TierStats{Computed: 1}) {
		t.Fatalf("Has counted lookups: %+v", st)
	}
}

// TestTierStats: every lookup of a tier ends in exactly one of three
// places, and each is counted where it ends — memory (a completed entry
// or an in-flight one joined), the store (the Cache's own hit counter),
// or a computation, whichever of the bypasses led there — and the
// counters render beside their kind's. The tier's own store lookups are
// counted as the store counts them.
func TestTierStats(t *testing.T) {
	c := mustOpen(t, t.TempDir(), Options{})
	tier := Tier[string, []byte]{
		Kind:   "test-v1",
		Encode: func(b []byte) ([]byte, error) { return b, nil },
		Decode: func(b []byte) ([]byte, error) { return b, nil },
	}
	key := func() (Key, bool) { return Key{Binary: "x"}, true }
	compute := func() ([]byte, error) { return []byte("v"), nil }
	expect := func(what string, want TierStats) {
		t.Helper()
		if got := tier.Stats(); got != want {
			t.Fatalf("%s: %+v, want %+v", what, got, want)
		}
	}
	expect("unused tier", TierStats{})
	tier.Do(c, "k", key, compute)
	expect("miss everywhere computes", TierStats{Computed: 1, StoreMisses: 1})
	tier.Do(c, "k", key, compute)
	expect("memory hit", TierStats{MemHits: 1, Computed: 1, StoreMisses: 1})
	tier.Do(c, "k2", key, compute)
	expect("store hit computes nothing", TierStats{MemHits: 1, Computed: 1, StoreHits: 1, StoreMisses: 1})
	tier.Disk(nil, key, compute)
	tier.Disk(c, func() (Key, bool) { return Key{}, false }, compute)
	tier.Disk(c, key, func() ([]byte, error) { return nil, errors.New("not reached") })
	expect("both bypasses compute, a store hit does not", TierStats{MemHits: 1, Computed: 3, StoreHits: 2, StoreMisses: 1})
	tier.Disk(nil, nil, func() ([]byte, error) { return nil, errors.New("failed") })
	expect("a failed computation is one", TierStats{MemHits: 1, Computed: 4, StoreHits: 2, StoreMisses: 1})

	// An in-flight lookup joined is a memory hit.
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tier.Do(nil, "slow", nil, func() ([]byte, error) { close(started); <-release; return nil, nil })
	}()
	<-started
	wg.Add(1)
	go func() { defer wg.Done(); tier.Do(nil, "slow", nil, compute) }()
	for tier.Stats().MemHits != 2 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	expect("joined in flight", TierStats{MemHits: 2, Computed: 5, StoreHits: 2, StoreMisses: 1})
	if ks := c.Stats().Kinds["test-v1"]; ks.Hits != 2 || ks.Misses != 1 {
		t.Fatalf("the store counted %+v for the tier's 2 hits and 1 miss", ks)
	}

	st := c.Stats().WithTiers(map[string]TierStats{"test-v1": tier.Stats(), "other-v1": {Computed: 2}})
	if got := st.KindsString(); got != "other-v1 0/0 (mem 0, computed 2), test-v1 2/3 (mem 2, computed 5)" {
		t.Fatalf("KindsString() = %q", got)
	}
	if c.Stats().Kinds["test-v1"].TierStats != (TierStats{}) {
		t.Fatal("WithTiers wrote through to the store's own counters")
	}
}

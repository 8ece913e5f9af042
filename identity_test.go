package janus

import (
	"sync"
	"testing"
	"unsafe"

	"janus/internal/artcache"
	"janus/internal/obj"
	"janus/internal/workloads"
)

// registryBuilds calls f on every build the harness renders from: all
// benchmarks at O3 and the parallelisable ones at O2 and O3AVX, train
// and ref inputs of each.
func registryBuilds(t *testing.T, f func(exe *obj.Executable, libs []*obj.Library)) {
	t.Helper()
	for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
		names := workloads.ParallelisableNames()
		if opt == workloads.O3 {
			names = workloads.Names()
		}
		for _, name := range names {
			for _, in := range []workloads.Input{workloads.Train, workloads.Ref} {
				exe, libs, err := workloads.Build(name, in, opt)
				if err != nil {
					t.Fatal(err)
				}
				f(exe, libs)
			}
		}
	}
}

// sameString reports whether a and b are one string value — the same
// bytes in memory, not merely equal ones. hashBinary assembles a new
// string on every call, so two keys are one value exactly when one
// computation produced both.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestIdentityMemoMatchesFreshKey: for every registry build, with its
// library set and without, the memoised key is the freshly hashed one,
// a second lookup is the memo's own value, and the full working set
// fits under the bound — a long-lived process never wraps it.
func TestIdentityMemoMatchesFreshKey(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles every registry build; run without -short")
	}
	ResetMemos()
	keys := map[string]string{}
	first := map[*obj.Executable]string{}
	registryBuilds(t, func(exe *obj.Executable, libs []*obj.Library) {
		sets := [][]*obj.Library{nil}
		if len(libs) > 0 {
			sets = append(sets, libs)
		}
		for _, ls := range sets {
			got := binaryKey(exe, ls)
			if want := hashBinary(exe, ls); got != want {
				t.Fatalf("%s (%d libs): memoised key %s, fresh key %s", exe.Name, len(ls), got, want)
			}
			if other, dup := keys[got]; dup {
				t.Fatalf("%s (%d libs) and %s share key %s", exe.Name, len(ls), other, got)
			}
			keys[got] = exe.Name
		}
		first[exe] = binaryKey(exe, libs)
	})
	if len(keys) == len(first) {
		t.Fatal("no registry build links a library")
	}
	if len(keys) >= identityLimit {
		t.Fatalf("the registry's %d keys do not fit under identityLimit %d", len(keys), identityLimit)
	}
	registryBuilds(t, func(exe *obj.Executable, libs []*obj.Library) {
		if !sameString(binaryKey(exe, libs), first[exe]) {
			t.Fatalf("%s: key was hashed again within the bound", exe.Name)
		}
	})
}

// TestIdentityMemoDoesNotFollowStrip: the memo is keyed by pointer and
// Strip returns a new one, so a memoised digest cannot ride the struct
// copy into a binary with other symbols.
func TestIdentityMemoDoesNotFollowStrip(t *testing.T) {
	reg, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	// Registry builds are already stripped; give one its symbols back.
	full := *reg
	full.Stripped = false
	full.Symbols = []obj.Symbol{{Name: "main", Addr: reg.Entry, Size: 8, Kind: obj.SymFunc}}
	e := &full

	ke := binaryKey(e, libs) // memoised before the copy is taken
	s := e.Strip()
	ks := binaryKey(s, libs)
	if ks == ke {
		t.Fatal("a stripped copy got the key of the binary it was stripped from")
	}
	if want := hashBinary(s, libs); ks != want {
		t.Fatalf("stripped copy: memoised key %s, fresh key %s", ks, want)
	}
	if kr := binaryKey(reg, libs); ks != kr {
		t.Fatalf("stripping the symbols back off must restore the registry build's key: %s vs %s", ks, kr)
	}
}

// TestIdentityKeyStableAcrossProcessState: a build assembled in this
// process state and the same build decoded from its build-v1 entry in a
// state made to look like a new process get equal keys — what lets one
// process replay the artifacts another one stored.
func TestIdentityKeyStableAcrossProcessState(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"462.libquantum", "410.bwaves"} { // without and with a library
		workloads.ResetBuildCache()
		ResetMemos()
		assembled, libs, err := workloads.BuildCached(c, name, workloads.Ref, workloads.O3AVX)
		if err != nil {
			t.Fatal(err)
		}
		ka := binaryKey(assembled, libs)

		workloads.ResetBuildCache()
		ResetMemos()
		hits := c.Stats().Hits
		loaded, libs2, err := workloads.BuildCached(c, name, workloads.Ref, workloads.O3AVX)
		if err != nil {
			t.Fatal(err)
		}
		if loaded == assembled || c.Stats().Hits != hits+1 {
			t.Fatalf("%s: second build was not decoded from the store (%s)", name, c.Stats())
		}
		if kl := binaryKey(loaded, libs2); kl != ka {
			t.Fatalf("%s: assembled build keyed %s, its stored image %s", name, ka, kl)
		}
	}
}

// TestIdentityMemoComputesOnce: concurrent first users of one binary
// share a single hash, later users get that same value, and ResetMemos
// drops it.
func TestIdentityMemoComputesOnce(t *testing.T) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Ref, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos()
	keys := make([]string, 16)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i] = binaryKey(exe, libs)
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if !sameString(k, keys[0]) {
			t.Fatalf("caller %d hashed the binary itself", i)
		}
	}
	if !sameString(binaryKey(exe, libs), keys[0]) {
		t.Fatal("a later lookup hashed the binary again")
	}

	ResetMemos()
	again := binaryKey(exe, libs)
	if again != keys[0] {
		t.Fatalf("key changed across ResetMemos: %s vs %s", again, keys[0])
	}
	if sameString(again, keys[0]) {
		t.Fatal("ResetMemos kept the identity memo")
	}
}

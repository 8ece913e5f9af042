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
// bytes in memory, not merely equal ones. obj.Identity assembles a new
// string on every call, so two IDs are one value exactly when one
// computation produced both.
func sameString(a, b string) bool {
	return len(a) == len(b) && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestIdentityMemoMatchesFreshKey: for every registry build, with its
// library set and without, the handle's memoised identity is the
// freshly hashed one, a second lookup finds the same handle and its own
// value, and the full working set fits under the bound — a long-lived
// process never wraps it.
func TestIdentityMemoMatchesFreshKey(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles every registry build; run without -short")
	}
	s := NewSession(nil)
	keys := map[string]string{}
	first := map[*obj.Executable]string{}
	registryBuilds(t, func(exe *obj.Executable, libs []*obj.Library) {
		sets := [][]*obj.Library{nil}
		if len(libs) > 0 {
			sets = append(sets, libs)
		}
		for _, ls := range sets {
			got := s.BinaryOf(exe, ls...).ID()
			if want := obj.Identity(exe, ls); got != want {
				t.Fatalf("%s (%d libs): memoised identity %s, fresh %s", exe.Name, len(ls), got, want)
			}
			if other, dup := keys[got]; dup {
				t.Fatalf("%s (%d libs) and %s share identity %s", exe.Name, len(ls), other, got)
			}
			keys[got] = exe.Name
		}
		first[exe] = s.BinaryOf(exe, libs...).ID()
	})
	if len(keys) == len(first) {
		t.Fatal("no registry build links a library")
	}
	if len(keys) >= handleLimit {
		t.Fatalf("the registry's %d handles do not fit under handleLimit %d", len(keys), handleLimit)
	}
	registryBuilds(t, func(exe *obj.Executable, libs []*obj.Library) {
		if !sameString(s.BinaryOf(exe, libs...).ID(), first[exe]) {
			t.Fatalf("%s: binary was hashed again within the bound", exe.Name)
		}
	})
}

// TestIdentityMemoDoesNotFollowStrip: handles are found by pointer and
// Strip returns a new executable, so a memoised digest cannot follow
// the shared sections into a binary with other symbols.
func TestIdentityMemoDoesNotFollowStrip(t *testing.T) {
	reg, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	// Registry builds are already stripped; give one its symbols back.
	e := &obj.Executable{
		Name: reg.Name, Entry: reg.Entry,
		CodeBase: reg.CodeBase, Code: reg.Code,
		DataBase: reg.DataBase, Data: reg.Data,
		Imports: reg.Imports,
		Symbols: []obj.Symbol{{Name: "main", Addr: reg.Entry, Size: 8, Kind: obj.SymFunc}},
	}

	ke := BinaryOf(e, libs...).ID() // memoised before the copy is taken
	s := e.Strip()
	ks := BinaryOf(s, libs...).ID()
	if ks == ke {
		t.Fatal("a stripped copy got the identity of the binary it was stripped from")
	}
	if want := obj.Identity(s, libs); ks != want {
		t.Fatalf("stripped copy: memoised identity %s, fresh %s", ks, want)
	}
	if kr := BinaryOf(reg, libs...).ID(); ks != kr {
		t.Fatalf("stripping the symbols back off must restore the registry build's identity: %s vs %s", ks, kr)
	}
}

// TestIdentityKeyStableAcrossProcessState: a build assembled in one
// session, the identity recorded for it in the store, and the same
// build assembled again in a fresh session all agree — what lets one
// process replay the artifacts another one stored, without the image.
func TestIdentityKeyStableAcrossProcessState(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"462.libquantum", "410.bwaves"} { // without and with a library
		assembled, err := NewSession(workloads.NewMemo()).Open(c, name, workloads.Ref, workloads.O3AVX)
		if err != nil {
			t.Fatal(err)
		}
		ka := assembled.ID()
		exeA, libsA, err := assembled.Image()
		if err != nil {
			t.Fatal(err)
		}
		if want := obj.Identity(exeA, libsA); ka != want {
			t.Fatalf("%s: assembled handle identity %s, fresh %s", name, ka, want)
		}

		s := NewSession(workloads.NewMemo())
		before := c.Stats()
		recorded, err := s.Open(c, name, workloads.Ref, workloads.O3AVX)
		if err != nil {
			t.Fatal(err)
		}
		kr, size := recorded.ID(), recorded.CodeSize()
		after := c.Stats()
		if recorded == assembled || after.Hits != before.Hits+1 || after.Kinds["ident-v2"].Hits != before.Kinds["ident-v2"].Hits+1 {
			t.Fatalf("%s: second open did not come from the identity record alone (%s; %s)", name, after, after.KindsString())
		}
		if kr != ka || size != len(exeA.Code) {
			t.Fatalf("%s: assembled build is %s with %d code bytes, its record says %s with %d", name, ka, len(exeA.Code), kr, size)
		}

		loaded, libs, err := recorded.Image()
		if err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if loaded == exeA || st.Hits+st.Misses != after.Hits+after.Misses || st.BadEntries != 0 {
			t.Fatalf("%s: image was not assembled anew, or its assembly consulted the store (%s; %s)", name, st, st.KindsString())
		}
		if kl := s.BinaryOf(loaded, libs...).ID(); kl != ka || recorded.ID() != ka {
			t.Fatalf("%s: assembled build keyed %s, its stored image %s, the handle after loading it %s", name, ka, kl, recorded.ID())
		}
	}
}

// TestIdentityMemoComputesOnce: concurrent first users of one binary
// share a single handle and a single hash, later users get that same
// value, and a fresh session has neither.
func TestIdentityMemoComputesOnce(t *testing.T) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Ref, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(nil)
	keys := make([]string, 16)
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys[i] = s.BinaryOf(exe, libs...).ID()
		}()
	}
	wg.Wait()
	for i, k := range keys {
		if !sameString(k, keys[0]) {
			t.Fatalf("caller %d hashed the binary itself", i)
		}
	}
	held := s.BinaryOf(exe, libs...)
	if !sameString(held.ID(), keys[0]) {
		t.Fatal("a later lookup hashed the binary again")
	}

	fresh := NewSession(nil).BinaryOf(exe, libs...)
	if fresh == held {
		t.Fatal("a fresh session had the handle")
	}
	again := fresh.ID()
	if again != keys[0] {
		t.Fatalf("identity changed across sessions: %s vs %s", again, keys[0])
	}
	if sameString(again, keys[0]) {
		t.Fatal("a fresh session had the memoised identity")
	}
}

// TestResetsRenewTheDefaultSession: the two resets the benchmark module
// calls between renders replace the process default's tiers —
// ResetMemos the stages', handles included, and ResetBuildCache the
// builds', which the default session reads through to — and reach no
// other session.
func TestResetsRenewTheDefaultSession(t *testing.T) {
	exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	own := NewSession(workloads.NewMemo())
	mine, held := own.BinaryOf(exe, libs...), BinaryOf(exe, libs...)
	opened, err := workloads.Open(nil, "470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos()
	if BinaryOf(exe, libs...) == held {
		t.Fatal("ResetMemos kept the default session's handle")
	}
	if b, _ := process.Load().Open(nil, "470.lbm", workloads.Train, workloads.O3); b != opened {
		t.Fatal("ResetMemos dropped the default session's builds")
	}
	workloads.ResetBuildCache()
	b, _ := process.Load().Open(nil, "470.lbm", workloads.Train, workloads.O3)
	if b == opened {
		t.Fatal("ResetBuildCache kept the default session's handle")
	}
	if w, _ := workloads.Open(nil, "470.lbm", workloads.Train, workloads.O3); w != b {
		t.Fatal("the default session does not open through workloads' own builds")
	}
	if own.BinaryOf(exe, libs...) != mine {
		t.Fatal("a reset of the default reached another session")
	}
}

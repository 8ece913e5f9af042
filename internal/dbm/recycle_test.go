package dbm

import (
	"slices"
	"testing"

	"janus/internal/guest"
)

// TestRecycleTranslationSharesDecodedCode: a translated block of
// executable code is a window onto the decode cache every machine loaded
// from the executable shares — two executors translate a block to the
// same array, with no capacity past the block to append into — while a
// block of library code is copied, and a run through both gives
// native's result.
func TestRecycleTranslationSharesDecodedCode(t *testing.T) {
	const threads = 4
	exe, lib := buildMixedModeProgram(t, 64, threads)
	sched := scheduleOf(t, exe)
	a, err := New(exe, sched, DefaultConfig(threads), lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(exe, nil, Config{Threads: 1, Cost: DefaultCost()}, lib)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for addr := exe.CodeBase; addr < exe.CodeEnd(); blocks++ {
		ba, err := a.translate(1, addr)
		if err != nil {
			t.Fatalf("block %#x: %v", addr, err)
		}
		bb, err := b.translate(0, addr)
		if err != nil {
			t.Fatalf("block %#x: %v", addr, err)
		}
		if &ba.insts[0] != &bb.insts[0] || cap(ba.insts) != len(ba.insts) {
			t.Fatalf("block %#x: two executors' translations are not one window onto the shared decode cache (len %d, cap %d)", addr, len(ba.insts), cap(ba.insts))
		}
		for i := range ba.insts {
			if want, _ := a.M.FetchInst(addr + uint64(i)*guest.InstSize); ba.insts[i] != want {
				t.Fatalf("block %#x instruction %d: %v, fetch gives %v", addr, i, ba.insts[i], want)
			}
		}
		addr = ba.end
	}
	isq, ok := lib.SymbolByName("isq")
	if !ok {
		t.Fatal("library has no isq")
	}
	la, err := a.translate(1, isq.Addr)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.translate(0, isq.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(la.insts) == 0 || &la.insts[0] == &lb.insts[0] {
		t.Fatalf("library block %#x: %d instructions, shared between executors", isq.Addr, len(la.insts))
	}

	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	native := nativeOf(t, exe, lib)
	if res.DataHash != native.DataHash || !slices.Equal(res.Output, native.Output) {
		t.Fatalf("DBM run differs from native: data %#x vs %#x, output %v vs %v", res.DataHash, native.DataHash, res.Output, native.Output)
	}
	if a.Stats.ParRegions == 0 {
		t.Fatal("no region ran in parallel")
	}
	t.Logf("%d executable blocks aliased", blocks)
}

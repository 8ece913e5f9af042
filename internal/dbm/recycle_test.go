package dbm

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"janus/internal/faultinject"
	"janus/internal/freelist"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
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
		ba, err := a.translate(a.threads[1], 1, addr)
		if err != nil {
			t.Fatalf("block %#x: %v", addr, err)
		}
		bb, err := b.translate(b.threads[0], 0, addr)
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
	la, err := a.translate(a.threads[1], 1, isq.Addr)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.translate(b.threads[0], 0, isq.Addr)
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

// freshThreadList gives the test a free list of thread records of its
// own, empty, and puts the process's back when it ends.
func freshThreadList(t *testing.T) {
	t.Helper()
	saved := threadRecs
	threadRecs = freelist.New[threadRec](maxFreeThreads)
	t.Cleanup(func() { threadRecs = saved })
}

// runClosed runs exe under sched on cfg's threads and closes the
// executor, returning its result with the full-image hash cleared (it
// covers worker scratch that records host scheduling; DataHash is the
// contract) and the records Close returned.
func runClosed(t *testing.T, exe *obj.Executable, sched *rules.Schedule, cfg Config, libs ...*obj.Library) (*Result, []*threadRec) {
	t.Helper()
	ex, err := New(exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	recs := ex.threads
	ex.Close()
	if ex.threads != nil {
		t.Fatal("a closed executor still holds its thread records")
	}
	res.MemHash = 0
	return res, recs
}

// TestRecycleThreadRecordsComeBackEmpty: Close empties every thread
// record before it goes on the list — no block, no ledger entry, no
// context state, no transaction, a view bound to nothing — keeping
// only the storage the next executor reuses; a record that outgrew
// maxKeptBlocks keeps none of it.
func TestRecycleThreadRecordsComeBackEmpty(t *testing.T) {
	freshThreadList(t)
	const threads = 4
	exe, lib := buildMixedModeProgram(t, 256, threads)
	res, recs := runClosed(t, exe, scheduleOf(t, exe), DefaultConfig(threads), lib)
	if res.Stats.HostParRegions == 0 || res.Stats.TxStarted == 0 {
		t.Fatalf("set-up: want a speculative region and a transaction: %+v", res.Stats)
	}
	unbound := &vm.MemView{}
	unbound.Rebind(nil)
	kept := 0
	for i, rec := range recs {
		v := reflect.ValueOf(rec)
		for f := 0; f < v.Elem().NumField(); f++ {
			name, got := v.Type().Elem().Field(f).Name, fieldAt(v, f)
			switch name {
			case "view":
				if !reflect.DeepEqual(rec.view, unbound) {
					t.Errorf("record %d: view still bound or caching pages", i)
				}
			case "worker", "region":
				th := got.Interface().(jrt.Thread)
				if th.Ctx == nil || *th.Ctx != (vm.Context{}) || th != (jrt.Thread{Ctx: th.Ctx}) {
					t.Errorf("record %d: %s thread %+v not emptied down to its zeroed context", i, name, th)
				}
			case "slab":
				for _, b := range rec.slab {
					if !reflect.DeepEqual(*b, tblock{}) {
						t.Errorf("record %d: kept block %+v is not zeroed", i, *b)
					}
				}
				kept += len(rec.slab)
			case "cache", "charged":
				if got.IsNil() || got.Len() != 0 {
					t.Errorf("record %d: %s = %v, want empty storage kept", i, name, got)
				}
			case "chargeUndo":
				if got.Len() != 0 {
					t.Errorf("record %d: journal %v survived Close", i, got)
				}
			default:
				if !got.IsZero() {
					t.Errorf("record %d: %s = %v survived Close", i, name, got)
				}
			}
		}
	}
	if kept == 0 {
		t.Errorf("records kept none of the blocks the run translated (%d charged)", res.Stats.TransBlocks)
	}

	big := takeThreadRec(vm.NewMemory())
	for i := 0; i <= maxKeptBlocks; i++ {
		b := big.newBlock()
		big.cache[uint64(i)], big.charged[uint64(i)] = b, true
	}
	big.release()
	if big.slab != nil || big.cache != nil || big.charged != nil || big.chargeUndo != nil {
		t.Errorf("a record past the cap kept %d blocks, %d cache and %d ledger entries' storage", len(big.slab), len(big.cache), len(big.charged))
	}
	if again := takeThreadRec(vm.NewMemory()); again != big || again.cache == nil || again.charged == nil {
		t.Error("the record past the cap did not come back with new maps")
	}
}

// TestRecycleWaitingRecordsFreeTheirMemory: records waiting on the list
// keep nothing of their closed executor reachable — not its Memory, and
// through it the data sections it maps, nor its machine.
func TestRecycleWaitingRecordsFreeTheirMemory(t *testing.T) {
	freshThreadList(t)
	const threads = 4
	exe, lib := buildMixedModeProgram(t, 256, threads)
	sched := scheduleOf(t, exe)
	closed := func() (weak.Pointer[vm.Memory], weak.Pointer[vm.Machine]) {
		ex, err := New(exe, sched, DefaultConfig(threads), lib)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			t.Fatal(err)
		}
		mem, m := weak.Make(ex.M.Mem), weak.Make(ex.M)
		ex.Close()
		return mem, m
	}
	mem, m := closed()
	runtime.GC()
	runtime.GC()
	if mem.Value() != nil || m.Value() != nil {
		t.Fatal("a closed executor's memory is still reachable while its records wait on the list")
	}
	if fresh, _ := threadRecs.Stats(); fresh != threads {
		t.Fatalf("%d records taken, want %d", fresh, threads)
	}
}

// TestRecycleRecordsRunAsFresh: a schedule run on recycled records —
// ones another program's run left, with its blocks and its contexts —
// gives the result and stats it gives on fresh ones, also where a run
// flushes its code caches after a failed bounds check and where a
// speculative region is rolled back and re-run.
func TestRecycleRecordsRunAsFresh(t *testing.T) {
	const threads = 4
	type prog struct {
		name  string
		exe   *obj.Executable
		libs  []*obj.Library
		cfg   Config
		check func(Stats) bool
	}
	mixed, lib := buildMixedModeProgram(t, 256, threads)
	recovered := DefaultConfig(threads)
	recovered.Inject = &faultinject.Plan{Point: faultinject.WorkerPanic}
	progs := []prog{
		{"speculative", mixed, []*obj.Library{lib}, DefaultConfig(threads), func(s Stats) bool { return s.HostParRegions > 0 && s.TxCommits > 0 }},
		{"failed-check", buildAliasProgram(t, true), nil, DefaultConfig(threads), func(s Stats) bool { return s.ChecksFailed > 0 && s.CacheFlushes > 0 }},
		{"recovered", buildScale(t, 4096), nil, recovered, func(s Stats) bool { return s.ParRecoveries > 0 }},
	}
	scheds := make([]*rules.Schedule, len(progs))
	fresh := make([]*Result, len(progs))
	for i, p := range progs {
		scheds[i] = scheduleOf(t, p.exe)
		freshThreadList(t)
		fresh[i], _ = runClosed(t, p.exe, scheds[i], p.cfg, p.libs...)
		if !p.check(fresh[i].Stats) {
			t.Fatalf("%s: set-up did not reach its path: %+v", p.name, fresh[i].Stats)
		}
	}
	freshThreadList(t)
	for round := 0; round < 2; round++ {
		for i, p := range progs {
			got, _ := runClosed(t, p.exe, scheds[i], p.cfg, p.libs...)
			if !reflect.DeepEqual(got, fresh[i]) {
				t.Errorf("round %d, %s: recycled records give\n %+v\nfresh ones\n %+v", round, p.name, got, fresh[i])
			}
		}
	}
	if fresh, reused := threadRecs.Stats(); fresh != threads || reused != int64(2*len(progs)-1)*threads {
		t.Errorf("%d records fresh, %d reused; want %d and %d", fresh, reused, threads, (2*len(progs)-1)*threads)
	}
}

// TestRecycleConcurrentExecutorsShareNoRecord: executors created,
// run and closed on several goroutines at once never hold one record
// together — under the race detector a shared record is a reported
// race; without it, a result that differs from a fresh run's — and
// every run after the first few draws recycled records.
func TestRecycleConcurrentExecutorsShareNoRecord(t *testing.T) {
	freshThreadList(t)
	const threads, goroutines, runs = 4, 4, 6
	exe := buildScale(t, 512)
	sched := scheduleOf(t, exe)
	want, _ := runClosed(t, exe, sched, DefaultConfig(threads))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				ex, err := New(exe, sched, DefaultConfig(threads))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := ex.Run()
				ex.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if got.MemHash = 0; !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d run %d: %+v, want %+v", g, i, got, want)
				}
			}
		}()
	}
	wg.Wait()
	if fresh, reused := threadRecs.Stats(); fresh+reused != (1+goroutines*runs)*threads || fresh > (1+goroutines)*threads {
		t.Errorf("%d records fresh, %d reused; want %d taken, at most %d fresh", fresh, reused, (1+goroutines*runs)*threads, (1+goroutines)*threads)
	}
}

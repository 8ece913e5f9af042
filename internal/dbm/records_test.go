package dbm

// Tests of the two run-time record types (threadRec, loopRec): every
// reset path clears what it is documented to clear and nothing else,
// the speculative engine's block budget trips exactly where the
// round-robin guard does, and no loop ID a schedule file can carry
// reaches an index or an allocation size.

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"janus/internal/analyzer"
	"janus/internal/jrt"
	"janus/internal/obj"
	"janus/internal/rules"
)

// scheduleOf is exe's parallel schedule, runtime checks allowed.
func scheduleOf(t testing.TB, exe *obj.Executable) *rules.Schedule {
	t.Helper()
	p, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	p.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// fieldAt is field i of the struct v points to, readable and settable
// whether exported or not.
func fieldAt(v reflect.Value, i int) reflect.Value {
	f := v.Elem().Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// fillJunk overwrites v, down to depth levels of pointers, slices and
// maps, with values no reset path would leave: true, 0x5a…, three-element
// slices, one-entry maps, non-nil pointers, funcs and errors. Locks and
// other interfaces are left alone.
func fillJunk(v reflect.Value, depth int) {
	t := v.Type()
	if p := t.PkgPath(); p == "sync" || p == "internal/sync" {
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0x5a)
	case reflect.Float64:
		v.SetFloat(0x5a)
	case reflect.String:
		v.SetString("junk")
	case reflect.Func:
		v.Set(reflect.MakeFunc(t, func([]reflect.Value) []reflect.Value { return nil }))
	case reflect.Interface:
		if t == reflect.TypeOf((*error)(nil)).Elem() {
			v.Set(reflect.ValueOf(errors.New("junk")))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillJunk(v.Index(i), depth)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if t.Field(i).Type.Size() > 0 {
				fillJunk(fieldAt(v.Addr(), i), depth)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
		if depth > 0 {
			fillJunk(v.Elem(), depth-1)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(t, 3, 3))
		for i := 0; depth > 0 && i < 3; i++ {
			fillJunk(v.Index(i), depth-1)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(t))
		k, e := reflect.New(t.Key()).Elem(), reflect.New(t.Elem()).Elem()
		fillJunk(k, 0)
		if depth > 0 {
			fillJunk(e, depth-1)
		}
		v.SetMapIndex(k, e)
	}
}

// checkPath runs path on a junk-filled record (rec points to it) and
// asserts that exactly the fields named in cleared come out zero or
// empty while every other field is untouched.
func checkPath(t *testing.T, name string, rec reflect.Value, path func(), cleared ...string) {
	t.Helper()
	before := reflect.New(rec.Type().Elem())
	before.Elem().Set(rec.Elem())
	path()
	for i := 0; i < rec.Elem().NumField(); i++ {
		fn := rec.Type().Elem().Field(i).Name
		got, was := fieldAt(rec, i), fieldAt(before, i)
		if slices.Contains(cleared, fn) {
			if empty := (got.Kind() == reflect.Map || got.Kind() == reflect.Slice) && got.Len() == 0; !got.IsZero() && !empty {
				t.Errorf("%s left %s.%s = %v", name, rec.Type().Elem().Name(), fn, got)
			}
		} else if !reflect.DeepEqual(got.Interface(), was.Interface()) {
			t.Errorf("%s changed %s.%s, which it is not documented to touch", name, rec.Type().Elem().Name(), fn)
		}
	}
}

// The fields the next region re-initialises in full
// (TestLaterRegionReinitialisesRecords) and the ones no reset path
// touches by design; the flush and rollback lists are in
// TestResetPathsClearWhatTheyDocument. classified holds every field of
// a record to one of the lists, so a new field cannot be forgotten.
var (
	threadRegionScoped = []string{"blocks", "bound", "worker", "region"}
	loopRegionScoped   = []string{"lc", "ivInit", "spec"}
	threadPersistent   = []string{"tx", "suppressTx", "view", "txSpare", "slab", "slabUsed"}
	loopPersistent     = []string{"id", "exits", "exit", "finish", "bound", "hasBound", "priv", "checks", "scan", "scanned", "seq"}
)

func classified(t *testing.T, typ reflect.Type, lists ...[]string) {
	t.Helper()
	names := slices.Concat(lists...)
	for i := 0; i < typ.NumField(); i++ {
		if n := typ.Field(i).Name; !slices.Contains(names, n) {
			t.Errorf("%s.%s is cleared by no reset path and not listed as persistent: decide which", typ.Name(), n)
		}
	}
}

// TestResetPathsClearWhatTheyDocument fills a thread record and a loop
// record with junk and runs the modelled flush and the rollback over
// them.
func TestResetPathsClearWhatTheyDocument(t *testing.T) {
	flushed := []string{"lastBlk", "cache", "charged", "chargeUndo"}
	rolledBack := []string{"lastBlk", "cache", "chargeUndo"}
	classified(t, reflect.TypeOf(threadRec{}), flushed, threadRegionScoped, threadPersistent)
	classified(t, reflect.TypeOf(loopRec{}), []string{"demoted"}, loopRegionScoped, loopPersistent)

	ex := &Executor{loops: map[int32]*loopRec{}}
	rec, l := &threadRec{}, &loopRec{}
	ex.threads = []*threadRec{rec}
	ex.loops[0] = l
	fillJunk(reflect.ValueOf(l).Elem(), 2)

	fillJunk(reflect.ValueOf(rec).Elem(), 2)
	checkPath(t, "flush", reflect.ValueOf(rec), ex.flushCaches, flushed...)
	checkPath(t, "flush", reflect.ValueOf(l), ex.flushCaches)

	// A rollback forgets the journaled charges and keeps the older ones.
	fillJunk(reflect.ValueOf(rec).Elem(), 2)
	rec.charged = map[uint64]bool{1: true, 2: true, 3: true}
	rec.chargeUndo = []uint64{3, 1}
	checkPath(t, "rollback", reflect.ValueOf(rec), func() { rec.reset(false) }, rolledBack...)
	if !reflect.DeepEqual(rec.charged, map[uint64]bool{2: true}) {
		t.Errorf("rollback left the ledger %v, want only the charge made before the region", rec.charged)
	}
	// All a rollback does to the loop's record is latch it.
	l.demoted = false
	want := *l
	want.demoted = true
	if ex.demote(l); !reflect.DeepEqual(*l, want) {
		t.Errorf("rollback left the loop record %+v, want %+v", *l, want)
	}
}

// TestLaterRegionReinitialisesRecords: loop contexts, engine scratch and
// region threads belong to the records and are reused by every region,
// so a region has to assign every field of them. An executor whose
// records hold junk where a previous region would have left state must
// end a run with them identical to a fresh executor's, result included.
func TestLaterRegionReinitialisesRecords(t *testing.T) {
	exe := buildScale(t, 4096)
	sched := scheduleOf(t, exe)
	cfg := DefaultConfig(4)
	cfg.WorkStealing = false // one piece per thread: which worker ran what is fixed
	run := func(dirty bool) (*Result, *Executor) {
		ex, err := New(exe, sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dirty {
			for _, rec := range ex.threads {
				for _, fn := range threadRegionScoped {
					f, _ := reflect.TypeOf(*rec).FieldByName(fn)
					fillJunk(fieldAt(reflect.ValueOf(rec), f.Index[0]), 2)
				}
			}
			for _, l := range ex.loops {
				for _, fn := range loopRegionScoped {
					f, _ := reflect.TypeOf(*l).FieldByName(fn)
					fillJunk(fieldAt(reflect.ValueOf(l), f.Index[0]), 3)
				}
			}
		}
		res, err := ex.Run()
		if err != nil {
			t.Fatalf("dirty=%v: %v", dirty, err)
		}
		// A context's bus is its own executor's view; compare it by
		// identity here and leave it out of the deep comparison.
		for i, rec := range ex.threads {
			for _, th := range []*jrt.Thread{&rec.worker, &rec.region} {
				if th.Ctx.Bus != rec.view {
					t.Errorf("dirty=%v: thread %d runs on a bus that is not its view", dirty, i)
				}
				th.Ctx.Bus = nil
			}
		}
		return res, ex
	}
	want, fresh := run(false)
	got, reused := run(true)
	if want.Stats.HostParRegions == 0 {
		t.Fatal("no region ran under the speculative engine")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result differs:\n reused %+v\n  fresh %+v", got, want)
	}
	for i, rec := range reused.threads {
		f := fresh.threads[i]
		if rec.blocks != f.blocks || rec.bound != f.bound || !reflect.DeepEqual(rec.worker, f.worker) || !reflect.DeepEqual(rec.region, f.region) {
			t.Errorf("thread %d kept state from before its region:\n reused %+v %+v\n  fresh %+v %+v", i, rec.worker, rec.region, f.worker, f.region)
		}
	}
	for id, l := range reused.loops {
		f := fresh.loops[id]
		if !reflect.DeepEqual(l.lc, f.lc) || !reflect.DeepEqual(l.ivInit, f.ivInit) || !reflect.DeepEqual(l.spec, f.spec) {
			t.Errorf("loop %d kept state from before its region:\n reused %+v %+v\n  fresh %+v %+v", id, l.lc, l.spec, f.lc, f.spec)
		}
	}
}

// TestBudgetBoundary: a region fails iff its dispatched blocks exceed
// MaxSteps, under every engine at any GOMAXPROCS — the speculative ones
// by recovering once into the round-robin engine's own failure.
func TestBudgetBoundary(t *testing.T) {
	exe := buildScale(t, 64)
	sched := scheduleOf(t, exe)
	// region steps the main thread into its first parallel region with
	// a budget of maxSteps blocks, and returns the region's outcome.
	region := func(t *testing.T, hostParallel, stealing bool, maxSteps int64) (*Executor, error) {
		cfg := DefaultConfig(4)
		cfg.HostParallel, cfg.WorkStealing, cfg.MaxSteps = hostParallel, stealing, maxSteps
		ex, err := New(exe, sched, cfg)
		if err != nil {
			t.Fatal(err)
		}
		main := &jrt.Thread{Ctx: ex.main}
		for ex.Stats.ParRegions == 0 {
			if err := ex.stepBlock(main); err != nil {
				return ex, err
			}
		}
		return ex, nil
	}
	// N is the speculative engine's own exact count; the round-robin
	// rows below hold its guard to the same number.
	ex, err := region(t, true, false, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, rec := range ex.threads {
		n += rec.blocks
	}
	if n < 64 {
		t.Fatalf("region dispatched %d blocks, want at least one per iteration", n)
	}
	for _, procs := range []int{1, 2} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stuck string
		for _, eng := range []struct {
			name                   string
			hostParallel, stealing bool
		}{{"round-robin", false, false}, {"one-piece", true, false}, {"stealing", true, true}} {
			ex, err := region(t, eng.hostParallel, eng.stealing, n)
			if err != nil || ex.Stats.ParRecoveries != 0 {
				t.Errorf("GOMAXPROCS %d, %s, MaxSteps = N = %d: err %v, %d recoveries; want a clean region", procs, eng.name, n, err, ex.Stats.ParRecoveries)
			}
			if eng.stealing && ex.Stats.StealRegions != 1 {
				t.Errorf("the stealing row ran %d subdivided regions, want 1", ex.Stats.StealRegions)
			}
			ex, err = region(t, eng.hostParallel, eng.stealing, n-1)
			want := int64(0)
			if eng.hostParallel {
				want = 1
			}
			if !errors.Is(err, ErrRegionStuck) || ex.Stats.ParRecoveries != want {
				t.Errorf("GOMAXPROCS %d, %s, MaxSteps = N-1: err %v, %d recoveries; want ErrRegionStuck after %d", procs, eng.name, err, ex.Stats.ParRecoveries, want)
			} else if stuck == "" {
				stuck = err.Error()
			} else if err.Error() != stuck {
				t.Errorf("GOMAXPROCS %d, %s fails with %q, round-robin with %q", procs, eng.name, err, stuck)
			}
		}
	}
}

// TestHostileLoopIDs: a loop ID is whatever int32 a schedule file
// carries. Consistent rules under a hostile ID run clean; a LOOP_INIT
// whose loop lost its exits or its bound fails typed at region entry;
// none of it panics or sizes an allocation.
func TestHostileLoopIDs(t *testing.T) {
	exe := buildScale(t, 4096)
	native := nativeOf(t, exe)
	sane := scheduleOf(t, exe)
	victim := int32(-1)
	for _, r := range sane.Rules {
		if r.ID == rules.LOOP_INIT {
			victim = r.LoopID
			break
		}
	}
	// hostile is the schedule after a Save/Load round trip with the
	// victim loop's rules for which move holds renumbered to id.
	hostile := func(id int32, move func(rules.ID) bool) *rules.Schedule {
		s := &rules.Schedule{ExeName: sane.ExeName, ExeSize: sane.ExeSize}
		for _, r := range sane.Rules {
			if r.LoopID == victim && move(r.ID) {
				r.LoopID = id
			}
			s.Append(r)
		}
		img, err := s.Save()
		if err != nil {
			t.Fatal(err)
		}
		if s, err = rules.Load(img); err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(s *rules.Schedule) (res *Result, allocated uint64, err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ex, err := New(exe, s, DefaultConfig(4))
		if err == nil {
			res, err = ex.Run()
		}
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc, err
	}
	all := func(rules.ID) bool { return true }
	_, base, err := run(hostile(victim, all))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{-7, 1 << 30} {
		res, allocated, err := run(hostile(id, all))
		if err != nil {
			t.Fatalf("loop renumbered %d: %v", id, err)
		}
		if res.Output[0] != native.Output[0] || res.DataHash != native.DataHash || res.Stats.ParRegions == 0 {
			t.Errorf("loop renumbered %d: wrong result or no region: %+v", id, res)
		}
		if allocated > base+1<<20 {
			t.Errorf("loop renumbered %d: run allocated %d bytes, %d with the analyser's ID", id, allocated, base)
		}
		for _, lost := range []rules.ID{rules.LOOP_FINISH, rules.LOOP_UPDATE_BOUND} {
			// id now names a loop with rules of one kind only, and the
			// LOOP_INIT's own loop lacks them.
			_, allocated, err := run(hostile(id, func(r rules.ID) bool { return r == lost }))
			if !errors.Is(err, ErrBadSchedule) || !strings.Contains(err.Error(), "loop ") {
				t.Errorf("%s moved to loop %d: err = %v, want ErrBadSchedule naming the loop", lost, id, err)
			}
			if allocated > base+1<<20 {
				t.Errorf("%s moved to loop %d: run allocated %d bytes, %d with the analyser's ID", lost, id, allocated, base)
			}
		}
	}
}

// TestThreadRecordsShareNoHotLine: the words a thread writes per block
// lead its record — from the dispatch anchor to the end of its worker
// thread — and no cache line holding them holds another record's.
func TestThreadRecordsShareNoHotLine(t *testing.T) {
	ex, err := New(buildScale(t, 64), nil, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	const line = 64
	hot := func(r *threadRec) (first, last uintptr) {
		base := uintptr(unsafe.Pointer(r))
		return base / line, (base + unsafe.Offsetof(r.region) - 1) / line
	}
	if unsafe.Offsetof(ex.threads[0].lastBlk) != 0 || unsafe.Offsetof(ex.threads[0].blocks) > unsafe.Offsetof(ex.threads[0].region) {
		t.Fatal("the per-block words no longer lead the record")
	}
	for i, a := range ex.threads {
		for _, b := range ex.threads[i+1:] {
			af, al := hot(a)
			bf, bl := hot(b)
			if af <= bl && bf <= al {
				t.Errorf("records at %p and %p keep per-block words on one cache line", a, b)
			}
		}
	}
}

package rules

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"janus/internal/guest"
	"janus/internal/sym"
)

func sampleSchedule() *Schedule {
	s := &Schedule{ExeName: "bench", ExeSize: 4096}
	s.Append(Rule{Addr: 0x400900, ID: LOOP_INIT, LoopID: 3, Data: LoopInitData{
		Inductions: []InductionSpec{{Reg: guest.R1, Init: sym.ConstExpr(0), Step: 1}},
		Reductions: []ReductionSpec{{Reg: guest.R2, Op: guest.FADD}},
		Trip:       TripSpec{Known: true, Num: sym.RegExpr(guest.R7), Den: 1},
		Policy:     PolicyChunked,
		ChunkSize:  4,
		LoopStart:  0x400900,
	}})
	s.Append(Rule{Addr: 0x400a00, ID: LOOP_FINISH, LoopID: 3, Data: LoopFinishData{
		Inductions: []InductionSpec{{Reg: guest.R1, Init: sym.ConstExpr(0), Step: 1}},
		Reductions: []ReductionSpec{{Reg: guest.R2, Op: guest.FADD}},
		LiveOut:    []guest.Reg{guest.R2, guest.R5},
	}})
	s.Append(Rule{Addr: 0x400918, ID: LOOP_UPDATE_BOUND, LoopID: 3, Data: UpdateBoundData{
		CmpAddr: 0x400918, IsImm: true, BoundReg: guest.RegNone, IVReg: guest.R1, Step: 1,
		Init: sym.ConstExpr(0), ExitOp: guest.JGE,
	}})
	s.Append(Rule{Addr: 0x400930, ID: MEM_PRIVATISE, LoopID: 3, Data: MemPrivatiseData{Slot: 2, Size: 8}})
	s.Append(Rule{Addr: 0x400938, ID: MEM_MAIN_STACK, LoopID: 3, Data: MemMainStackData{}})
	s.Append(Rule{Addr: 0x400880, ID: MEM_BOUNDS_CHECK, LoopID: 3, Data: BoundsCheckData{
		Ranges: []RangeSpec{
			{Write: true, Base: sym.RegExpr(guest.R8), Stride: 8, LoOff: 0, HiOff: 8},
			{Write: false, Base: sym.RegExpr(guest.R9), Stride: 8, LoOff: 0, HiOff: 8},
		},
	}})
	s.Append(Rule{Addr: 0x400940, ID: TX_START, LoopID: 3, Data: TxData{CallTarget: 0x401000}})
	s.Append(Rule{Addr: 0x400958, ID: TX_FINISH, LoopID: 3, Data: TxData{}})
	s.Append(Rule{Addr: 0x400900, ID: PROF_LOOP_START, LoopID: 3, Data: ProfLoopData{}})
	s.Append(Rule{Addr: 0x400930, ID: PROF_MEM_ACCESS, LoopID: 3, Data: ProfMemData{}})
	s.Append(Rule{Addr: 0x400940, ID: PROF_EXCALL_START, LoopID: 3, Data: ProfExcallData{Target: 0x401000}})
	s.Append(Rule{Addr: 0x4008f0, ID: THREAD_SCHEDULE, LoopID: 3, Data: ThreadData{Target: 0x400900}})
	s.Append(Rule{Addr: 0x400a08, ID: THREAD_YIELD, LoopID: 3, Data: ThreadData{}})
	s.Append(Rule{Addr: 0x400870, ID: MEM_SPILL_REG, LoopID: 3, Data: SpillRegData{Regs: []guest.Reg{guest.R13, guest.R14}}})
	return s
}

func TestScheduleSaveLoadRoundTrip(t *testing.T) {
	s := sampleSchedule()
	img, err := s.Save()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if back.ExeName != s.ExeName || back.ExeSize != s.ExeSize {
		t.Fatalf("header mismatch: %+v", back)
	}
	if len(back.Rules) != len(s.Rules) {
		t.Fatalf("rule count %d != %d", len(back.Rules), len(s.Rules))
	}
	for i := range s.Rules {
		if !reflect.DeepEqual(normalise(s.Rules[i]), normalise(back.Rules[i])) {
			t.Errorf("rule %d mismatch:\n  want %+v\n  got  %+v", i, s.Rules[i], back.Rules[i])
		}
	}
}

// normalise maps nil and empty Regs maps to a canonical form for
// comparison.
func normalise(r Rule) Rule { return r }

func TestScheduleSizePositive(t *testing.T) {
	s := sampleSchedule()
	if s.Size() <= 0 {
		t.Fatal("schedule size must be positive")
	}
	empty := &Schedule{ExeName: "x", ExeSize: 1}
	if empty.Size() >= s.Size() {
		t.Fatal("empty schedule should be smaller")
	}
}

func TestLoadRejectsCorruptImages(t *testing.T) {
	s := sampleSchedule()
	img, _ := s.Save()
	if _, err := Load(img[:10]); err == nil {
		t.Error("truncated image should fail")
	}
	if _, err := Load([]byte("XXXX")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := Load(nil); err == nil {
		t.Error("nil image should fail")
	}
	// A schedule is named by the digest of its image: bytes past the
	// last rule would give one schedule two names.
	if _, err := Load(append(img, 0)); err == nil {
		t.Error("an image with a trailing byte should fail")
	}
}

// TestLoadSizesFromCounts: every slice Load fills is made at the size
// its count gives, and a count larger than the bytes left could hold
// allocates no more than those bytes could describe.
func TestLoadSizesFromCounts(t *testing.T) {
	img, err := sampleSchedule().Save()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(img)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(what string, n, c int) {
		if n != c {
			t.Errorf("%s: %d elements in room for %d", what, n, c)
		}
	}
	exact("rules", len(s.Rules), cap(s.Rules))
	for _, r := range s.Rules {
		switch d := r.Data.(type) {
		case LoopInitData:
			exact("LOOP_INIT inductions", len(d.Inductions), cap(d.Inductions))
			exact("LOOP_INIT reductions", len(d.Reductions), cap(d.Reductions))
		case LoopFinishData:
			exact("LOOP_FINISH inductions", len(d.Inductions), cap(d.Inductions))
			exact("LOOP_FINISH reductions", len(d.Reductions), cap(d.Reductions))
			exact("LOOP_FINISH live-outs", len(d.LiveOut), cap(d.LiveOut))
		case BoundsCheckData:
			exact("bounds-check ranges", len(d.Ranges), cap(d.Ranges))
		case SpillRegData:
			exact("spilled registers", len(d.Regs), cap(d.Regs))
		}
	}

	// Counts at their maximum over a few bytes: 2^32-1 rules, and a
	// LOOP_INIT payload of 2^16-1 inductions, each of 2^16-1 terms.
	var w wr
	w.b.WriteString(scheduleMagic)
	w.str("x")
	w.u64(0)
	w.u32(math.MaxUint32)
	huge := [][]byte{bytes.Clone(w.b.Bytes())}
	w.b.Truncate(w.b.Len() - 4)
	w.u32(1)
	w.u64(0x400900)
	w.u16(uint16(LOOP_INIT))
	w.u32(0)
	w.u32(3 + 19)
	w.u16(math.MaxUint16)
	w.u8(uint8(guest.R1))
	w.boolean(false)
	w.i64(0)
	w.i64(0)
	w.u16(math.MaxUint16)
	huge = append(huge, w.b.Bytes())
	for i, img := range huge {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(img)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("image %d: %d bytes claiming the largest counts loaded", i, len(img))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("image %d: loading %d bytes allocated %d", i, len(img), n)
		}
	}
}

func TestIndexOrderPreserved(t *testing.T) {
	s := &Schedule{}
	// Two rules at the same address must come back in schedule order
	// (paper: transformations are applied in rewrite-schedule order).
	s.Append(Rule{Addr: 0x100, ID: MEM_MAIN_STACK, Data: MemMainStackData{}})
	s.Append(Rule{Addr: 0x100, ID: MEM_PRIVATISE, Data: MemPrivatiseData{Slot: 1, Size: 8}})
	s.Append(Rule{Addr: 0x200, ID: PROF_LOOP_ITER, Data: ProfLoopData{}})
	ix := BuildIndex(s)
	at := ix.At(0x100)
	if len(at) != 2 || at[0].ID != MEM_MAIN_STACK || at[1].ID != MEM_PRIVATISE {
		t.Fatalf("order not preserved: %v", at)
	}
	if !ix.Has(0x200) || ix.Has(0x300) {
		t.Fatal("Has broken")
	}
	if !ix.AnyInRange(0x100, 0x201) || ix.AnyInRange(0x201, 0x300) {
		t.Fatal("AnyInRange broken")
	}
}

func TestIDStrings(t *testing.T) {
	for id := PROF_LOOP_START; id < idMax; id++ {
		if id.String() == "" || !id.Valid() {
			t.Errorf("id %d has no name", id)
		}
	}
	if ID(0).Valid() || ID(999).Valid() {
		t.Error("invalid ids accepted")
	}
	if !PROF_MEM_ACCESS.IsProfiling() || LOOP_INIT.IsProfiling() {
		t.Error("IsProfiling wrong")
	}
}

func TestExprWireProperty(t *testing.T) {
	cfgq := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sym.ConstExpr(rng.Int63() - rng.Int63())
		e = e.Add(sym.IterExpr(int64(rng.Intn(64))))
		for i := 0; i < rng.Intn(4); i++ {
			e = e.Add(sym.RegExpr(guest.Reg(rng.Intn(16))).Scale(int64(rng.Intn(9) - 4)))
		}
		w := &wr{}
		w.expr(e)
		r := &rd{b: w.b.Bytes()}
		back := r.expr()
		return r.err == nil && e.Equal(back) || (e.Unknown && back.Unknown)
	}
	if err := quick.Check(f, cfgq); err != nil {
		t.Error(err)
	}
}

func TestTripSpecCount(t *testing.T) {
	ts := TripSpec{Known: true, Num: sym.ConstExpr(100), Den: 4, Round: sym.RoundCeil}
	n, ok := ts.Count(func(guest.Reg) uint64 { return 0 })
	if !ok || n != 25 {
		t.Fatalf("count = %d ok=%v", n, ok)
	}
	unk := TripSpec{}
	if _, ok := unk.Count(func(guest.Reg) uint64 { return 0 }); ok {
		t.Fatal("unknown trip must not count")
	}
}

// TestCheckFor: a schedule may only be applied to the executable it
// records; an unrecorded name or size (a hand-built schedule) matches
// anything, and both mismatches are errors.Is-able.
func TestCheckFor(t *testing.T) {
	s := &Schedule{ExeName: "bench", ExeSize: 4096}
	if err := s.CheckFor("bench", 4096); err != nil {
		t.Fatalf("own binary refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		size uint64
	}{{"other", 4096}, {"bench", 4097}, {"", 0}} {
		if err := s.CheckFor(tc.name, tc.size); !errors.Is(err, ErrWrongBinary) {
			t.Errorf("CheckFor(%q, %d) = %v, want ErrWrongBinary", tc.name, tc.size, err)
		}
	}
	for _, handBuilt := range []*Schedule{{}, {ExeName: "bench"}, {ExeSize: 4096}} {
		if err := handBuilt.CheckFor("bench", 4096); err != nil {
			t.Errorf("%+v refused: %v", handBuilt, err)
		}
	}
	if err := (&Schedule{ExeName: "bench"}).CheckFor("other", 1); !errors.Is(err, ErrWrongBinary) {
		t.Errorf("a recorded name is checked even without a size: %v", err)
	}
}

package dbm

import (
	"math"
	"reflect"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/asm"
	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
)

// pipeline analyzes exe, selects loops, generates the parallel schedule
// and runs under the DBM with the given thread count.
func pipeline(t *testing.T, exe *obj.Executable, threads int, libs ...*obj.Library) (*Result, *Executor) {
	t.Helper()
	return pipelineCfg(t, exe, DefaultConfig(threads), libs...)
}

// pipelineCfg is pipeline under an explicit DBM configuration.
func pipelineCfg(t *testing.T, exe *obj.Executable, cfg Config, libs ...*obj.Library) (*Result, *Executor) {
	t.Helper()
	ex, err := New(exe, scheduleOf(t, exe), cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, ex
}

// nativeOf runs the program natively for comparison.
func nativeOf(t *testing.T, exe *obj.Executable, libs ...*obj.Library) *vm.Result {
	t.Helper()
	res, err := vm.RunNative(exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// buildScale builds: for i in 0..n-1: dst[i] = src[i]*3; write(sum of
// dst via second loop); exit.
func buildScale(t *testing.T, n int64) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("scale")
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i)*7 + 1
	}
	b.DataI64("src", src)
	b.Data("dst", int(n*8))
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "src", 0)
	f.MoviData(guest.R9, "dst", 0)
	f.Movi(guest.R1, 0)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.OpI(guest.IMULI, guest.R3, 3)
	f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	// Checksum sequentially.
	sum, sumDone := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Movi(guest.R2, 0)
	f.Bind(sum)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, sumDone)
	f.Ld(guest.R3, guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8})
	f.Op(guest.ADD, guest.R2, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, sum)
	f.Bind(sumDone)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Movi(guest.R0, guest.SysExit)
	f.Movi(guest.R1, 0)
	f.Syscall()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestParallelDOALLCorrectAndFaster(t *testing.T) {
	exe := buildScale(t, 4096)
	native := nativeOf(t, exe)
	res8, ex8 := pipeline(t, exe, 8)
	if res8.Output[0] != native.Output[0] {
		t.Fatalf("output: parallel %d, native %d", res8.Output[0], native.Output[0])
	}
	if ex8.DataHash() != native.MemHash {
		t.Fatal("memory image differs from native")
	}
	if ex8.Stats.ParRegions == 0 {
		t.Fatal("no parallel region executed")
	}
	res1, _ := pipeline(t, exe, 1)
	if res1.Output[0] != native.Output[0] {
		t.Fatal("1-thread output wrong")
	}
	speedup := float64(res1.Cycles) / float64(res8.Cycles)
	if speedup < 1.5 {
		t.Fatalf("8-thread speedup only %.2fx (1T=%d cycles, 8T=%d)", speedup, res1.Cycles, res8.Cycles)
	}
}

func TestBareDBMSlowerThanNative(t *testing.T) {
	exe := buildScale(t, 1024)
	native := nativeOf(t, exe)
	ex, err := New(exe, nil, Config{Threads: 1, Cost: DefaultCost()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != native.Output[0] {
		t.Fatal("bare DBM changes results")
	}
	if res.Cycles <= native.Cycles {
		t.Fatalf("DBM should add overhead: dbm=%d native=%d", res.Cycles, native.Cycles)
	}
	// But the overhead must be modest once the code cache warms up.
	if float64(res.Cycles) > 2.0*float64(native.Cycles) {
		t.Fatalf("DBM overhead too high: %d vs %d", res.Cycles, native.Cycles)
	}
}

func TestReductionLoop(t *testing.T) {
	b := asm.NewBuilder("reduce")
	const n = 2000
	vals := make([]float64, n)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i) * 0.5
		want += vals[i]
	}
	b.DataF64("a", vals)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "a", 0)
	f.Movi(guest.R1, 0)
	f.Movi(guest.R2, 0) // sum (float bits of +0.0)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.Op(guest.FADD, guest.R2, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeOf(t, exe)
	res, ex := pipeline(t, exe, 4)
	got := math.Float64frombits(res.Output[0])
	wantN := math.Float64frombits(native.Output[0])
	// Reduction reassociation: allow tiny FP drift.
	if math.Abs(got-wantN) > 1e-6*math.Abs(wantN) {
		t.Fatalf("sum = %v, native %v", got, wantN)
	}
	if ex.Stats.ParRegions == 0 {
		t.Fatal("reduction loop did not parallelise")
	}
	_ = want
}

// buildAliasProgram builds a loop whose source/dest pointers are loaded
// from memory; ptrB either aliases ptrA (overlap) or not.
func buildAliasProgram(t *testing.T, overlap bool) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("aliasy")
	const n = 512
	b.Data("bufA", 8*2*n)
	b.Data("ptrs", 16)
	f := b.Func("main")
	// ptrs[0] = &bufA; ptrs[1] = &bufA[n] or &bufA[1] if overlapping.
	f.MoviData(guest.R2, "bufA", 0)
	f.StData("ptrs", 0, guest.R2)
	off := int64(8 * n)
	if overlap {
		off = 8
	}
	f.MoviData(guest.R2, "bufA", off)
	f.StData("ptrs", 8, guest.R2)
	// for i: dst[i] = src[i] + 1  (dst = ptrs[1], src = ptrs[0])
	f.LdData(guest.R8, "ptrs", 0)
	f.LdData(guest.R9, "ptrs", 8)
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.OpI(guest.ADDI, guest.R3, 1)
	f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	// checksum of whole buffer
	f.MoviData(guest.R8, "bufA", 0)
	sum, sumDone := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Movi(guest.R2, 0)
	f.Bind(sum)
	f.Cmpi(guest.R1, 2*n)
	f.J(guest.JGE, sumDone)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.Op(guest.ADD, guest.R2, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, sum)
	f.Bind(sumDone)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestBoundsCheckPassesParallelises(t *testing.T) {
	exe := buildAliasProgram(t, false)
	native := nativeOf(t, exe)
	res, ex := pipeline(t, exe, 4)
	if res.Output[0] != native.Output[0] {
		t.Fatalf("output %d != native %d", res.Output[0], native.Output[0])
	}
	if ex.Stats.ChecksRun == 0 {
		t.Fatal("bounds check never ran")
	}
	if ex.Stats.ChecksFailed != 0 {
		t.Fatal("disjoint arrays failed the check")
	}
	if ex.Stats.ParRegions == 0 {
		t.Fatal("loop with passing check did not parallelise")
	}
}

func TestBoundsCheckFailFallsBackSequentially(t *testing.T) {
	exe := buildAliasProgram(t, true)
	native := nativeOf(t, exe)
	res, ex := pipeline(t, exe, 4)
	if res.Output[0] != native.Output[0] {
		t.Fatalf("aliased fallback output %d != native %d", res.Output[0], native.Output[0])
	}
	if ex.Stats.ChecksFailed == 0 {
		t.Fatal("overlapping arrays passed the check")
	}
	// The aliased copy loop must fall back; the independent checksum
	// loop still parallelises, so exactly one region runs.
	if ex.Stats.ParRegions != 1 {
		t.Fatalf("expected only the checksum loop to parallelise, got %d regions", ex.Stats.ParRegions)
	}
	if ex.Stats.SeqFallbacks == 0 {
		t.Fatal("fallback not recorded")
	}
	if ex.Stats.CacheFlushes == 0 {
		t.Fatal("failed check should flush the modified code cache")
	}
}

func TestPrivatisedScalar(t *testing.T) {
	b := asm.NewBuilder("priv")
	const n = 600
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i)
	}
	b.DataI64("src", src)
	b.Data("dst", 8*n)
	b.Data("tmp", 8)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "src", 0)
	f.MoviData(guest.R9, "dst", 0)
	f.Movi(guest.R1, 0)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.StData("tmp", 0, guest.R3) // write tmp
	f.LdData(guest.R4, "tmp", 0) // read tmp
	f.OpI(guest.IMULI, guest.R4, 5)
	f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R4)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	// read tmp after loop (expects last iteration's value) + checksum dst
	f.LdData(guest.R5, "tmp", 0)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R5)
	f.Syscall()
	f.LdData(guest.R6, "dst", 8*(n-1))
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R6)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeOf(t, exe)
	res, ex := pipeline(t, exe, 4)
	if res.Output[0] != native.Output[0] || res.Output[1] != native.Output[1] {
		t.Fatalf("outputs %v != native %v", res.Output, native.Output)
	}
	if ex.Stats.ParRegions == 0 {
		t.Fatal("privatisable loop did not parallelise")
	}
	if ex.DataHash() != native.MemHash {
		t.Fatal("privatised cell not copied back correctly")
	}
}

func TestMainStackRedirect(t *testing.T) {
	b := asm.NewBuilder("stackread")
	const n = 400
	b.Data("dst", 8*n)
	f := b.Func("main")
	// Push a constant scale factor onto the stack; the loop reads it.
	f.Movi(guest.R2, 11)
	f.Push(guest.R2)
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R9, "dst", 0)
	f.Movi(guest.R1, 0)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.SP, Index: guest.RegNone, Scale: 1}) // read-only stack slot
	f.Op(guest.IMUL, guest.R3, guest.R1)
	f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.Pop(guest.R2)
	f.LdData(guest.R4, "dst", 8*(n-1))
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R4)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeOf(t, exe)
	res, ex := pipeline(t, exe, 4)
	if res.Output[0] != native.Output[0] {
		t.Fatalf("stack-redirect output %d != native %d (expect %d)", res.Output[0], native.Output[0], 11*(n-1))
	}
	if ex.Stats.ParRegions == 0 {
		t.Fatal("stack-reading loop did not parallelise")
	}
}

func TestSharedLibrarySpeculation(t *testing.T) {
	// Library function: fsq(x) = x*x (reads no heap; like the paper's
	// pow call with 0 writes, speculation always commits).
	lb := asm.NewBuilder("libm")
	sq := lb.Func("fsq")
	sq.Mov(guest.R0, guest.R1)
	sq.Op(guest.FMUL, guest.R0, guest.R1)
	sq.Ret()
	lib, err := lb.BuildLibrary(obj.DefaultLibBase)
	if err != nil {
		t.Fatal(err)
	}

	b := asm.NewBuilder("speclib")
	b.Import("fsq")
	const n = 256
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) * 0.25
	}
	b.DataF64("src", vals)
	b.Data("dst", 8*n)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "src", 0)
	f.MoviData(guest.R9, "dst", 0)
	f.Movi(guest.R6, 0) // induction in callee-saved register
	f.Bind(loop)
	f.Cmpi(guest.R6, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R1, guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8})
	f.Call("fsq")
	f.St(guest.Mem{Base: guest.R9, Index: guest.R6, Scale: 8}, guest.R0)
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.LdData(guest.R2, "dst", 8*(n-1))
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeOf(t, exe, lib)
	res, ex := pipeline(t, exe, 4, lib)
	if res.Output[0] != native.Output[0] {
		t.Fatalf("speculative output %v != native %v",
			math.Float64frombits(res.Output[0]), math.Float64frombits(native.Output[0]))
	}
	if ex.Stats.ParRegions == 0 {
		t.Fatal("library-calling loop did not parallelise")
	}
	if ex.Stats.TxStarted == 0 || ex.Stats.TxCommits == 0 {
		t.Fatalf("speculation not exercised: %+v", ex.Stats)
	}
	if ex.Stats.TxAborts != 0 {
		t.Fatalf("read-only library call should never abort: %d aborts", ex.Stats.TxAborts)
	}
}

func TestProfilingCoverageAndDependence(t *testing.T) {
	exe := buildAliasProgram(t, true) // overlapping: dependence must be observed
	p, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	prof := p.GenProfileSchedule()
	if len(prof.Rules) == 0 {
		t.Fatal("empty profiling schedule")
	}
	ex, err := New(exe, prof, Config{Threads: 1, Profile: true, Cost: DefaultCost()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	fr := ex.Cov.Fractions()
	if len(fr) == 0 {
		t.Fatal("no coverage recorded")
	}
	var total float64
	for _, f := range fr {
		total += f
	}
	if total <= 0 {
		t.Fatal("zero coverage")
	}
	obs := ex.Dep.Observed()
	if len(obs) == 0 {
		t.Fatal("aliased loop dependence not observed by profiling")
	}
}

func TestScheduleRoundTripThroughBytes(t *testing.T) {
	// The DBM must behave identically when the schedule goes through
	// its serialised form (the real deployment path).
	exe := buildScale(t, 512)
	p, _ := analyzer.Analyze(exe)
	p.SelectLoops(analyzer.SelectOptions{UseChecks: true})
	sched, _ := p.GenParallelSchedule()
	img, err := sched.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := rules.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(exe, loaded, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeOf(t, exe)
	if res.Output[0] != native.Output[0] {
		t.Fatal("serialised schedule changes behaviour")
	}
	if ex.Stats.ParRegions == 0 {
		t.Fatal("serialised schedule did not parallelise")
	}
}

func TestSmallTripFallsBack(t *testing.T) {
	exe := buildScale(t, 8) // 8 iterations over 8 threads: below floor
	native := nativeOf(t, exe)
	res, ex := pipeline(t, exe, 8)
	if res.Output[0] != native.Output[0] {
		t.Fatal("fallback output wrong")
	}
	if ex.Stats.ParRegions != 0 {
		t.Fatal("tiny loop should not parallelise")
	}
	if ex.Stats.SeqFallbacks == 0 {
		t.Fatal("fallback not recorded")
	}
}

// TestOnePieceReductionPartialBitExact pins the speculative engine's
// fold at one piece per thread: a guest thread's reduction partial is
// its register verbatim, so a float partial of -0.0 (a product over a
// chunk holding one -0.0) reaches LOOP_FINISH with the same bits the
// round-robin engine hands it.
func TestOnePieceReductionPartialBitExact(t *testing.T) {
	b := asm.NewBuilder("fprod")
	const n, threads = 64, 4
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.5
	}
	// One -0.0 in three of the four chunks: those partials are -0.0 and
	// the product's sign (three negative factors) shows in the output.
	negZero := math.Copysign(0, -1)
	vals[3], vals[n/threads+5], vals[n-2] = negZero, negZero, negZero
	b.DataF64("a", vals)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "a", 0)
	f.Movi(guest.R1, 0)
	f.Movi(guest.R2, int64(math.Float64bits(1.0))) // product
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.Op(guest.FMUL, guest.R2, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(hostParallel bool) *Result {
		cfg := DefaultConfig(threads)
		cfg.HostParallel = hostParallel
		cfg.WorkStealing = false
		res, _ := pipelineCfg(t, exe, cfg)
		return res
	}
	rr, spec := run(false), run(true)
	if spec.Stats.HostParRegions == 0 || spec.Stats.StealRegions != 0 {
		t.Fatalf("want one-piece speculative regions, got stats %+v", spec.Stats)
	}
	if want := math.Float64bits(negZero); rr.Output[0] != want || nativeOf(t, exe).Output[0] != want {
		t.Fatalf("kernel does not produce -0.0: round-robin %#x", rr.Output[0])
	}
	if spec.Output[0] != rr.Output[0] || spec.Cycles != rr.Cycles || spec.Insts != rr.Insts || spec.MemHash != rr.MemHash {
		t.Errorf("speculative run differs from round-robin:\n round-robin %+v\n speculative %+v", rr.Result, spec.Result)
	}
}

// TestVectorLiveInReachesRegionThreads: a broadcast hoisted out of the
// loop (the O3AVX float-stream shape, c[i] = a[i]*w + b[i] four lanes
// at a time) is a vector register live into the region. Every region
// context — round-robin thread, speculative piece at either subdivision
// factor, and the threads rebuilt after a recovery — must start from
// the loop-entry vector state, so the stored image matches native; the
// engines must still agree on virtual time.
func TestVectorLiveInReachesRegionThreads(t *testing.T) {
	b := asm.NewBuilder("vstream")
	const n, threads = 256, 4
	av, bv := make([]float64, n), make([]float64, n)
	for i := range av {
		av[i], bv[i] = float64(i)+0.5, float64(n-i)
	}
	b.DataF64("a", av)
	b.DataF64("b", bv)
	b.Data("c", n*8)
	f := b.Func("main")
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "a", 0)
	f.MoviData(guest.R9, "b", 0)
	f.MoviData(guest.R10, "c", 0)
	f.MoviF(guest.R11, 0.75)
	f.I(guest.NewInst(guest.VBCST, 2, guest.R11)) // w, live into the loop
	f.Movi(guest.R1, 0)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.I(guest.NewInstM(guest.VLD, 0, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8}))
	f.I(guest.NewInstM(guest.VLD, 1, guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}))
	f.I(guest.NewInst(guest.VMUL, 0, 2))
	f.I(guest.NewInst(guest.VADD, 0, 1))
	f.I(guest.NewInstM(guest.VST, 0, guest.Mem{Base: guest.R10, Index: guest.R1, Scale: 8}))
	f.OpI(guest.ADDI, guest.R1, 4)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	native := nativeOf(t, exe)
	run := func(hostParallel, stealing bool, inject *faultinject.Plan) *Result {
		cfg := DefaultConfig(threads)
		cfg.HostParallel, cfg.WorkStealing, cfg.Inject = hostParallel, stealing, inject
		res, _ := pipelineCfg(t, exe, cfg)
		if res.Stats.ParRegions == 0 {
			t.Fatalf("loop was not parallelised: %+v", res.Stats)
		}
		return res
	}
	rr := run(false, false, nil)
	if rr.DataHash != native.DataHash {
		t.Errorf("round-robin: final memory image differs from native")
	}
	for _, tc := range []struct {
		name     string
		stealing bool
		inject   *faultinject.Plan
	}{
		{"factor-1", false, nil},
		{"steal-factor", true, nil},
		{"factor-1/recovered", false, &faultinject.Plan{Point: faultinject.WorkerPanic}},
		{"steal-factor/recovered", true, &faultinject.Plan{Point: faultinject.WorkerPanic}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := run(true, tc.stealing, tc.inject)
			if res.Stats.HostParRegions == 0 || (res.Stats.StealRegions > 0) != tc.stealing {
				t.Fatalf("wrong engine shape: %+v", res.Stats)
			}
			if (res.Stats.ParRecoveries > 0) != (tc.inject != nil) {
				t.Fatalf("recoveries = %d with injection %v", res.Stats.ParRecoveries, tc.inject)
			}
			if res.DataHash != native.DataHash {
				t.Errorf("final memory image differs from native")
			}
			if res.Cycles != rr.Cycles || res.Insts != rr.Insts || res.MemHash != rr.MemHash {
				t.Errorf("differs from round-robin:\n round-robin %+v\n speculative %+v", rr.Result, res.Result)
			}
		})
	}
}

// TestStealDequesOnePieceNoTheft: when the region is not subdivided a
// worker with an empty queue gets no work, even while siblings hold
// theirs — running a sibling's whole chunk would put it on the wrong
// stack and TLS.
func TestStealDequesOnePieceNoTheft(t *testing.T) {
	// 3 iterations over 4 workers: worker 3's chunk is empty.
	chunks := jrt.PartitionStealing(3, 4, 1)
	var d stealDeques
	d.init(4, chunks, false)
	if idx, ok := d.next(3); ok {
		t.Fatalf("worker 3 stole piece %d with stealing off", idx)
	}
	for w := 0; w < 3; w++ {
		if idx, ok := d.next(w); !ok || chunks[idx].Owner != w {
			t.Fatalf("worker %d: next = %d, %v; want its own piece", w, idx, ok)
		}
		if _, ok := d.next(w); ok {
			t.Fatalf("worker %d got a second piece", w)
		}
	}
	// The same pool with stealing on hands worker 3 a sibling's piece.
	d.init(4, chunks, true)
	if _, ok := d.next(3); !ok {
		t.Fatal("worker 3 found nothing to steal with stealing on")
	}
}

// TestInitRegionCtxLeavesNothingBehind: region contexts belong to the
// executor and are reused by every region, so initRegionCtx has to
// assign every field — a context that ended its last region halted,
// with an exit code, flags, clocks and a transaction's bus must come out
// identical to one that was never used.
func TestInitRegionCtxLeavesNothingBehind(t *testing.T) {
	b := asm.NewBuilder("ctx")
	b.Func("main").Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := New(exe, nil, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	lc := &jrt.LoopCtx{Init: rules.LoopInitData{LoopStart: exe.Entry}}
	lc.EntryRegs[guest.R3] = 7
	lc.EntryVRegs[1][2] = 1.5
	l := &loopRec{lc: lc}

	fresh := &vm.Context{}
	ex.initRegionCtx(fresh, 2, l, 0)
	if fresh.PC != exe.Entry || fresh.ID != 2 || fresh.Bus != vm.Bus(ex.threads[2].view) || fresh.GPR[guest.R3] != 7 || fresh.VReg[1][2] != 1.5 {
		t.Fatalf("fresh context wrong: %+v", fresh)
	}

	used := &vm.Context{
		ZF: true, LF: true, PC: 1, Halted: true, Exit: 9, Cycles: 5, Insts: 6, ID: 3,
		Bus: ex.M.Mem,
	}
	for i := range used.GPR {
		used.GPR[i] = ^uint64(0)
	}
	for i := range used.VReg {
		for j := range used.VReg[i] {
			used.VReg[i][j] = math.Inf(1)
		}
	}
	ex.initRegionCtx(used, 2, l, 0)
	if !reflect.DeepEqual(used, fresh) {
		t.Fatalf("a reused context kept state from its last region:\n reused %+v\n  fresh %+v", used, fresh)
	}
}

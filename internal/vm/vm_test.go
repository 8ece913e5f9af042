package vm

import (
	"math"
	"testing"
	"testing/quick"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// buildSumProgram assembles: sum = 0; for i in 0..n-1 { sum += a[i] };
// write(sum); exit(0). Returns the executable.
func buildSumProgram(t *testing.T, n int64) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("sum")
	vals := make([]int64, n)
	var want int64
	for i := range vals {
		vals[i] = int64(i) * 3
		want += vals[i]
	}
	b.DataI64("a", vals)
	f := b.Func("main")
	loop := f.NewLabel()
	done := f.NewLabel()
	f.MoviData(guest.R8, "a", 0) // base
	f.Movi(guest.R1, 0)          // i
	f.Movi(guest.R2, 0)          // sum
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 0})
	f.Op(guest.ADD, guest.R2, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Movi(guest.R0, guest.SysExit)
	f.Movi(guest.R1, 0)
	f.Syscall()
	exe, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return exe
}

func TestRunNativeSumLoop(t *testing.T) {
	exe := buildSumProgram(t, 100)
	res, err := RunNative(exe)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for i := int64(0); i < 100; i++ {
		want += uint64(i * 3)
	}
	if len(res.Output) != 1 || res.Output[0] != want {
		t.Fatalf("output = %v, want [%d]", res.Output, want)
	}
	if res.Exit != 0 {
		t.Fatalf("exit = %d", res.Exit)
	}
	if res.Cycles <= 0 || res.Insts <= 0 {
		t.Fatalf("no virtual time recorded: %+v", res)
	}
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, 0xdeadbeefcafe)
	if got := m.Read64(0x1000); got != 0xdeadbeefcafe {
		t.Fatalf("got %#x", got)
	}
	// Unwritten memory reads as zero.
	if got := m.Read64(0x999000); got != 0 {
		t.Fatalf("unwritten = %#x", got)
	}
	// Page-straddling access.
	m.Write64(0x1ffc, 0x1122334455667788)
	if got := m.Read64(0x1ffc); got != 0x1122334455667788 {
		t.Fatalf("straddle = %#x", got)
	}
}

func TestMemoryProperty(t *testing.T) {
	f := func(addr uint64, v uint64) bool {
		m := NewMemory()
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryHashInsensitiveToZeroPages(t *testing.T) {
	a := NewMemory()
	b := NewMemory()
	a.Write64(0x5000, 7)
	b.Write64(0x5000, 7)
	b.Write64(0x9000, 0) // touched but zero
	if a.Hash() != b.Hash() {
		t.Fatal("zero page changed hash")
	}
	b.Write64(0x9000, 1)
	if a.Hash() == b.Hash() {
		t.Fatal("distinct contents, same hash")
	}
}

func TestFloatOps(t *testing.T) {
	b := asm.NewBuilder("float")
	f := b.Func("main")
	f.MoviF(guest.R1, 2.0)
	f.MoviF(guest.R2, 3.0)
	f.Op(guest.FMUL, guest.R1, guest.R2) // 6.0
	f.Op(guest.FSQRT, guest.R3, guest.R1)
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R3)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNative(exe)
	if err != nil {
		t.Fatal(err)
	}
	got := math.Float64frombits(res.Output[0])
	if math.Abs(got-math.Sqrt(6)) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestCallRet(t *testing.T) {
	b := asm.NewBuilder("callret")
	main := b.Func("main")
	main.Movi(guest.R1, 20)
	main.Call("double")
	main.Movi(guest.R9, guest.SysWrite) // write result in R0
	main.Mov(guest.R2, guest.R0)
	main.Mov(guest.R0, guest.R9)
	main.Mov(guest.R1, guest.R2)
	main.Syscall()
	main.Halt()
	dbl := b.Func("double")
	dbl.Mov(guest.R0, guest.R1)
	dbl.Op(guest.ADD, guest.R0, guest.R1)
	dbl.Ret()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunNative(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 40 {
		t.Fatalf("output %v", res.Output)
	}
}

func TestSharedLibraryCall(t *testing.T) {
	lb := asm.NewBuilder("libm")
	sq := lb.Func("square")
	sq.Mov(guest.R0, guest.R1)
	sq.Op(guest.FMUL, guest.R0, guest.R1)
	sq.Ret()
	lib, err := lb.BuildLibrary(obj.DefaultLibBase)
	if err != nil {
		t.Fatal(err)
	}

	b := asm.NewBuilder("uselib")
	b.Import("square")
	f := b.Func("main")
	f.MoviF(guest.R1, 5.0)
	f.Call("square")
	f.Mov(guest.R2, guest.R0)
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(exe.Imports) != 1 {
		t.Fatalf("imports %v", exe.Imports)
	}
	res, err := RunNative(exe, lib)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Float64frombits(res.Output[0]); got != 25.0 {
		t.Fatalf("square(5) = %v", got)
	}
}

func TestUnresolvedImportFails(t *testing.T) {
	b := asm.NewBuilder("missing")
	b.Import("nothere")
	f := b.Func("main")
	f.Call("nothere")
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachine(exe); err == nil {
		t.Fatal("expected unresolved import error")
	}
}

func TestVectorOps(t *testing.T) {
	b := asm.NewBuilder("vec")
	vals := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	b.DataF64("v", vals)
	b.Data("out", 8*guest.VLEN)
	f := b.Func("main")
	f.MoviData(guest.R8, "v", 0)
	f.MoviData(guest.R9, "out", 0)
	f.I(guest.NewInstM(guest.VLD, 0, guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1}))
	f.I(guest.NewInstM(guest.VLD, 1, guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1, Disp: 32}))
	f.I(guest.NewInst(guest.VADD, 0, 1))
	f.I(guest.NewInstM(guest.VST, 0, guest.Mem{Base: guest.R9, Index: guest.RegNone, Scale: 1}))
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewContext(0, obj.DefaultStackTop)
	if err := RunContext(m, c, 1000); err != nil {
		t.Fatal(err)
	}
	out := b.DataAddr("out")
	want := []float64{11, 22, 33, 44}
	for i, w := range want {
		got := math.Float64frombits(m.Mem.Read64(out + uint64(8*i)))
		if got != w {
			t.Errorf("lane %d = %v, want %v", i, got, w)
		}
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	b := asm.NewBuilder("div0")
	f := b.Func("main")
	f.Movi(guest.R1, 10)
	f.Movi(guest.R2, 0)
	f.Op(guest.IDIV, guest.R1, guest.R2)
	f.Halt()
	exe, _ := b.Build()
	if _, err := RunNative(exe); err == nil {
		t.Fatal("expected trap")
	}
}

func TestStrippedExecutableStillRuns(t *testing.T) {
	exe := buildSumProgram(t, 16)
	st := exe.Strip()
	if !st.Stripped || len(st.Symbols) != 0 {
		t.Fatal("strip did not remove symbols")
	}
	res, err := RunNative(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 {
		t.Fatal("stripped run broken")
	}
}

func TestCmovSemantics(t *testing.T) {
	b := asm.NewBuilder("cmov")
	f := b.Func("main")
	f.Movi(guest.R1, 5)
	f.Movi(guest.R2, 9)
	f.Movi(guest.R3, 77)
	f.Cmp(guest.R1, guest.R1) // ZF=1
	f.Op(guest.CMOVE, guest.R2, guest.R3)
	f.Cmpi(guest.R1, 6) // ZF=0
	f.Op(guest.CMOVE, guest.R2, guest.R1)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
	f.Halt()
	exe, _ := b.Build()
	res, err := RunNative(exe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 77 {
		t.Fatalf("cmov result %d", res.Output[0])
	}
}

func TestStackPushPop(t *testing.T) {
	b := asm.NewBuilder("stack")
	f := b.Func("main")
	f.Movi(guest.R1, 111)
	f.Movi(guest.R2, 222)
	f.Push(guest.R1)
	f.Push(guest.R2)
	f.Pop(guest.R3) // 222
	f.Pop(guest.R4) // 111
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R3)
	f.Syscall()
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R4)
	f.Syscall()
	f.Halt()
	exe, _ := b.Build()
	res, err := RunNative(exe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 222 || res.Output[1] != 111 {
		t.Fatalf("stack order wrong: %v", res.Output)
	}
}

func TestStepBoundEnforced(t *testing.T) {
	b := asm.NewBuilder("spin")
	f := b.Func("main")
	l := f.NewLabel()
	f.Bind(l)
	f.J(guest.JMP, l)
	exe, _ := b.Build()
	m, _ := NewMachine(exe)
	c := m.NewContext(0, obj.DefaultStackTop)
	if err := RunContext(m, c, 100); err == nil {
		t.Fatal("expected step-bound error")
	}
}

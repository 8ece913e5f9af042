package vm_test

// Engine micro-benchmarks for the interpreter hot path (`go test
// -bench`), and the 0 B/op dispatch guard over the same fixtures.

import (
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/vm"
)

// buildProgram assembles the reduction loop used by the dispatch
// benchmarks: sum = Σ a[i] over 256 elements, then write + exit.
func buildProgram() (*obj.Executable, error) {
	const n = 256
	b := asm.NewBuilder("engine-bench")
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) * 3
	}
	b.DataI64("a", vals)
	f := b.Func("main")
	loop := f.NewLabel()
	done := f.NewLabel()
	f.MoviData(guest.R8, "a", 0)
	f.Movi(guest.R1, 0)
	f.Movi(guest.R2, 0)
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
	return b.Build()
}

// instMix is the arithmetic/memory/branch mix the ExecInst and ExecRun
// benchmarks and TestExecInstZeroAlloc dispatch over; its closing branch
// is taken, so as one run it executes whole.
func instMix() []guest.Inst {
	return []guest.Inst{
		guest.NewInstI(guest.MOVI, guest.R1, 7),
		guest.NewInstI(guest.ADDI, guest.R1, 3),
		guest.NewInst(guest.ADD, guest.R2, guest.R1),
		guest.NewInstM(guest.ST, guest.R1, guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1, Disp: 0x6000}),
		guest.NewInstM(guest.LD, guest.R2, guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1, Disp: 0x6000}),
		guest.NewInst(guest.CMP, guest.R1, guest.R2),
		guest.NewInstI(guest.JE, guest.RegNone, 0x400000),
	}
}

// BenchmarkMemoryRead64 measures the TLB-hit load path.
func BenchmarkMemoryRead64(b *testing.B) {
	m := vm.NewMemory()
	m.Write64(0x1000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Read64(0x1000 + uint64(i%512)*8)
	}
	_ = sink
}

// BenchmarkMemoryWrite64 measures the TLB-hit store path (including
// dirty marking).
func BenchmarkMemoryWrite64(b *testing.B) {
	m := vm.NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write64(0x1000+uint64(i%512)*8, uint64(i))
	}
}

// BenchmarkMemoryHashIncremental measures a re-hash after touching one
// page out of 256: the dirty-page cache should make it near-constant in
// the resident set size.
func BenchmarkMemoryHashIncremental(b *testing.B) {
	m := vm.NewMemory()
	for p := uint64(0); p < 256; p++ {
		m.Write64(0x600000+p*4096, p+1)
	}
	m.Hash() // populate digests
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		m.Write64(0x600000, uint64(i)+1) // dirty one page
		sink += m.Hash()
	}
	_ = sink
}

// BenchmarkExecInst measures the zero-allocation dispatch loop over the
// shared arithmetic/memory/branch mix. Must report 0 B/op.
func BenchmarkExecInst(b *testing.B) {
	exe, err := buildProgram()
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.NewMachine(exe)
	if err != nil {
		b.Fatal(err)
	}
	c := m.NewContext(0, 0x7fff_0000)
	insts := instMix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &insts[i%len(insts)]
		if _, err := vm.ExecInst(m, c, in, 0x400000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecRun measures the same mix dispatched as one run per
// pass, reported per instruction so the row compares with ExecInst's.
// Must report 0 B/op.
func BenchmarkExecRun(b *testing.B) {
	exe, err := buildProgram()
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.NewMachine(exe)
	if err != nil {
		b.Fatal(err)
	}
	c := m.NewContext(0, 0x7fff_0000)
	insts := instMix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(insts) {
		if n, _, err := vm.ExecRun(m, c, insts, 0x400000); n != len(insts) || err != nil {
			b.Fatal(n, err)
		}
	}
}

// BenchmarkRunNative measures whole-program interpretation throughput
// (fetch + dispatch + memory) on the shared reduction loop.
func BenchmarkRunNative(b *testing.B) {
	exe, err := buildProgram()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.RunNative(exe); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecInstZeroAlloc asserts the dispatch loop allocates nothing in
// steady state: the shared arithmetic/memory/branch mix re-executed
// over a warm machine, instruction by instruction and as one run, must
// report zero allocations per run.
func TestExecInstZeroAlloc(t *testing.T) {
	exe, err := buildProgram()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewContext(0, 0x7fff_0000)
	// Warm the decode cache and memory pages.
	if err := vm.RunContext(m, c, vm.DefaultMaxSteps); err != nil {
		t.Fatal(err)
	}
	insts := instMix()
	allocs := testing.AllocsPerRun(100, func() {
		for i := range insts {
			if _, err := vm.ExecInst(m, c, &insts[i], 0x400000); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecInst steady state allocates %.1f objects per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if n, _, err := vm.ExecRun(m, c, insts, 0x400000); n != len(insts) || err != nil {
			t.Fatal(n, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecRun steady state allocates %.1f objects per run, want 0", allocs)
	}
}

// Package enginebench holds the shared fixtures for the execution-
// engine micro-benchmarks: one body per row, run through the thin
// Benchmark* wrappers in internal/vm, internal/dbm and internal/stm
// (`go test -bench`). The layer-by-layer ledger lives in bench/.
package enginebench

import (
	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// BuildProgram assembles the reduction loop used by the dispatch
// benchmarks: sum = Σ a[i] over 256 elements, then write + exit.
func BuildProgram() (*obj.Executable, error) {
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

// InstMix is the arithmetic/memory/branch mix the ExecInst benchmarks
// dispatch over.
func InstMix() []guest.Inst {
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

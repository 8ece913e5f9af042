package vm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// straightLine assembles n ADDIs followed by HALT, with emit's
// instructions (if any) first.
func straightLine(t *testing.T, n int, emit func(f *asm.FuncBuilder)) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("line")
	f := b.Func("main")
	if emit != nil {
		emit(f)
	}
	for i := 0; i < n; i++ {
		f.OpI(guest.ADDI, guest.R1, 1)
	}
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestExecRun pins ExecRun's stopping rule: the first error, the first
// control transfer, or the end of the slice, with n counting the
// instruction that stopped it.
func TestExecRun(t *testing.T) {
	const pc, target = 0x400000, 0x400f00
	at := func(i int) uint64 { return pc + uint64(i)*guest.InstSize }
	movi := func(r guest.Reg, v int64) guest.Inst { return guest.NewInstI(guest.MOVI, r, v) }
	syscall := guest.Inst{Op: guest.SYSCALL, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem}
	tests := []struct {
		name string
		ins  []guest.Inst
		n    int
		next uint64
		err  string // substring of the error, "" for none
		r2   uint64 // R2 afterwards: 9 iff the instruction after the stop ran
	}{
		{name: "empty", n: 0, next: pc},
		{name: "fall through to the end",
			ins: []guest.Inst{movi(guest.R1, 1), guest.NewInstI(guest.ADDI, guest.R1, 2), movi(guest.R2, 9)},
			n:   3, next: at(3), r2: 9},
		{name: "taken branch mid-slice stops the run",
			ins: []guest.Inst{movi(guest.R1, 1), guest.NewInstI(guest.CMPI, guest.R1, 1), guest.NewInstI(guest.JE, guest.RegNone, target), movi(guest.R2, 9)},
			n:   3, next: target},
		{name: "not-taken branch mid-slice continues",
			ins: []guest.Inst{movi(guest.R1, 1), guest.NewInstI(guest.CMPI, guest.R1, 2), guest.NewInstI(guest.JE, guest.RegNone, target), movi(guest.R2, 9)},
			n:   4, next: at(4), r2: 9},
		{name: "taken branch as last element",
			ins: []guest.Inst{movi(guest.R1, 1), guest.NewInstI(guest.JMP, guest.RegNone, target)},
			n:   2, next: target},
		{name: "exit syscall mid-slice",
			ins: []guest.Inst{movi(guest.R0, guest.SysExit), movi(guest.R1, 7), syscall, movi(guest.R2, 9)},
			n:   3, next: at(3), err: ErrExited.Error()},
		{name: "fault mid-slice names its own address",
			ins: []guest.Inst{movi(guest.R1, 10), movi(guest.R3, 0), guest.NewInst(guest.IDIV, guest.R1, guest.R3), movi(guest.R2, 9)},
			n:   3, next: 0, err: fmt.Sprintf("divide by zero at %#x", at(2))},
	}
	m, err := NewMachine(straightLine(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := m.NewContext(0, obj.DefaultStackTop)
			n, next, err := ExecRun(m, c, tc.ins, pc)
			if n != tc.n || next != tc.next {
				t.Errorf("n, next = %d, %#x; want %d, %#x", n, next, tc.n, tc.next)
			}
			if (err == nil) != (tc.err == "") || err != nil && !strings.Contains(err.Error(), tc.err) {
				t.Errorf("err = %v, want %q", err, tc.err)
			}
			if c.Insts != int64(tc.n) {
				t.Errorf("Insts = %d, want %d", c.Insts, tc.n)
			}
			if got := c.Reg(guest.R2); got != tc.r2 {
				t.Errorf("R2 = %d, want %d", got, tc.r2)
			}
		})
	}
}

// TestExecRunClockMatchesPerInstruction: a SysClock in the middle of a
// run must read the same virtual clock as per-instruction execution —
// cycles are charged as each instruction executes, not per run.
func TestExecRunClockMatchesPerInstruction(t *testing.T) {
	const pc = 0x400000
	ins := []guest.Inst{
		guest.NewInstI(guest.MOVI, guest.R3, 5),
		guest.NewInst(guest.IMUL, guest.R3, guest.R3),
		guest.NewInstI(guest.MOVI, guest.R0, guest.SysClock),
		{Op: guest.SYSCALL, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem},
		guest.NewInst(guest.MOV, guest.R4, guest.R0),
	}
	m, err := NewMachine(straightLine(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	run, step := m.NewContext(0, obj.DefaultStackTop), m.NewContext(0, obj.DefaultStackTop)
	if n, _, err := ExecRun(m, run, ins, pc); n != len(ins) || err != nil {
		t.Fatalf("ExecRun = %d, %v", n, err)
	}
	for i := range ins {
		if _, err := ExecInst(m, step, &ins[i], pc+uint64(i+1)*guest.InstSize); err != nil {
			t.Fatal(err)
		}
	}
	if run.Reg(guest.R4) == 0 || run.GPR != step.GPR || run.Cycles != step.Cycles || run.Insts != step.Insts {
		t.Fatalf("run read clock %d (cycles %d), per-instruction %d (cycles %d)",
			run.Reg(guest.R4), run.Cycles, step.Reg(guest.R4), step.Cycles)
	}
	// ExecInst is itself a one-instruction run, so the comparison above
	// cannot catch a charge both get wrong: the clock the SYSCALL reads
	// must also be the cost-model sum up to and including it.
	var want int64
	for _, in := range ins[:4] {
		want += in.Op.Cycles()
	}
	if got := int64(run.Reg(guest.R4)); got != want {
		t.Fatalf("SysClock read %d mid-run, want the cost-model sum %d", got, want)
	}
}

// TestExecRunChargesEveryOpcode: every opcode, run alone and in the
// middle of a slice, grows Cycles by exactly its cost-model latency and
// Insts by one. The expected charge comes from the guest table, never
// from the dispatch routine; whether the instruction after it ran is
// read from the register that instruction writes.
func TestExecRunChargesEveryOpcode(t *testing.T) {
	const pc = 0x400000
	m, err := NewMachine(straightLine(t, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	lead := guest.NewInstI(guest.MOVI, guest.R5, 1)
	tail := guest.NewInstI(guest.MOVI, guest.R6, 9)
	mem := guest.Mem{Base: guest.R3, Index: guest.RegNone, Scale: 1, Disp: 8}
	type tc struct {
		name string
		in   guest.Inst
		r0   uint64 // R0 before the run: the syscall number
		r2   uint64 // R2 before the run: the divisor
		err  bool   // the instruction stops the run with an error
		stop bool   // the instruction stops the run without one
	}
	var cases []tc
	var invalid guest.Op
	for op := guest.Op(0); op < 255; op++ {
		if !op.Valid() {
			if invalid == 0 {
				invalid = op
			}
			continue
		}
		cases = append(cases, tc{name: op.String(), in: guest.Inst{Op: op, Rd: guest.R1, Rs: guest.R2, Imm: pc + 0x100, M: mem}, r0: guest.SysWrite, r2: 3, err: op == guest.HALT})
	}
	cases = append(cases,
		tc{name: "taken branch", in: guest.NewInstI(guest.JNE, guest.RegNone, pc+0x100), stop: true},
		tc{name: "halt", in: guest.Inst{Op: guest.HALT, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem}, err: true},
		tc{name: "idiv by zero", in: guest.NewInst(guest.IDIV, guest.R1, guest.R2), r2: 0, err: true},
		tc{name: "unimplemented opcode", in: guest.Inst{Op: invalid, Rd: guest.R1, Rs: guest.R2, M: guest.NoMem}, err: true},
		tc{name: "syscall exit", in: guest.Inst{Op: guest.SYSCALL, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem}, r0: guest.SysExit, err: true},
	)
	if invalid == 0 {
		t.Fatal("the guest table defines every opcode below 255")
	}
	for _, k := range cases {
		for _, ins := range [][]guest.Inst{{k.in}, {lead, k.in, tail}} {
			c := m.NewContext(0, obj.DefaultStackTop)
			c.SetReg(guest.R0, k.r0)
			c.SetReg(guest.R1, pc+0x200)
			c.SetReg(guest.R2, k.r2)
			c.SetReg(guest.R3, 0x6000)
			c.Cycles, c.Insts = 1000, 100
			n, _, err := ExecRun(m, c, ins, pc)
			if (err != nil) != k.err {
				t.Errorf("%s in %d: err = %v", k.name, len(ins), err)
			}
			want, wantN := k.in.Op.Cycles(), 1
			if len(ins) > 1 {
				want, wantN = want+lead.Op.Cycles(), 2
				if c.Reg(guest.R6) == 9 {
					want, wantN = want+tail.Op.Cycles(), 3
				}
			}
			if c.Cycles-1000 != want || c.Insts-100 != int64(wantN) || n != wantN {
				t.Errorf("%s in %d: Cycles +%d, Insts +%d, n %d; want +%d, +%d, %d",
					k.name, len(ins), c.Cycles-1000, c.Insts-100, n, want, wantN, wantN)
			}
			if (k.err || k.stop) && c.Reg(guest.R6) == 9 {
				t.Errorf("%s: the run went on past a stopping instruction", k.name)
			}
		}
	}
}

// opaqueBus hides a view behind the Bus interface, as a transaction's
// buffer does, so ExecRun takes its interface path.
type opaqueBus struct{ v *MemView }

func (b opaqueBus) Read64(addr uint64) uint64     { return b.v.Read64(addr) }
func (b opaqueBus) Write64(addr uint64, v uint64) { b.v.Write64(addr, v) }

// TestExecRunBusPathsAgree: one program touching memory through every
// accessing opcode runs the same on the machine's Memory, on a MemView
// (both called directly) and on an opaque Bus (called through the
// interface).
func TestExecRunBusPathsAgree(t *testing.T) {
	build := func(callee int64) *obj.Executable {
		b := asm.NewBuilder("bus")
		b.DataF64("v", []float64{1, 2, 3, 4, 10, 20, 30, 40})
		b.Data("buf", 256)
		f := b.Func("main")
		f.MoviData(guest.R8, "buf", 0)
		f.MoviData(guest.R9, "v", 0)
		f.Movi(guest.R1, 11)
		f.Movi(guest.R2, 22)
		f.St(guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1}, guest.R1)
		f.I(guest.Inst{Op: guest.STI, Rd: guest.RegNone, Rs: guest.RegNone, Imm: 33, M: guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1, Disp: 8}})
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1, Disp: 8})
		f.Push(guest.R1)
		f.Push(guest.R3)
		f.Pop(guest.R4)
		f.Pop(guest.R5)
		f.Call("callee")
		f.Movi(guest.R10, callee)
		f.I(guest.NewInst(guest.CALLI, guest.R10, guest.RegNone))
		f.I(guest.NewInstM(guest.VLD, 0, guest.Mem{Base: guest.R9, Index: guest.RegNone, Scale: 1}))
		f.I(guest.NewInstM(guest.VLD, 1, guest.Mem{Base: guest.R9, Index: guest.RegNone, Scale: 1, Disp: 32}))
		f.I(guest.NewInst(guest.VADD, 0, 1))
		f.I(guest.NewInstM(guest.VST, 0, guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1, Disp: 64}))
		f.Ld(guest.R11, guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1, Disp: 72})
		f.Movi(guest.R0, guest.SysClock)
		f.Syscall()
		f.Cmp(guest.R4, guest.R5)
		f.Halt()
		g := b.Func("callee")
		g.Push(guest.R2)
		g.Ld(guest.R6, guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1})
		g.OpI(guest.ADDI, guest.R6, 1)
		g.St(guest.Mem{Base: guest.R8, Index: guest.RegNone, Scale: 1, Disp: 16}, guest.R6)
		g.Pop(guest.R7)
		g.Ret()
		exe, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	sym, _ := build(0).SymbolByName("callee")
	exe := build(int64(sym.Addr))
	if s, _ := exe.SymbolByName("callee"); s.Addr != sym.Addr {
		t.Fatalf("callee moved from %#x to %#x", sym.Addr, s.Addr)
	}
	type outcome struct {
		GPR     [guest.NumGPR + 1]uint64
		VReg    [guest.NumVReg][guest.VLEN]float64
		ZF, LF  bool
		Cycles  int64
		Insts   int64
		MemHash uint64
	}
	run := func(bus func(m *Machine) Bus) outcome {
		m, err := NewMachine(exe)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		c := m.NewContext(0, obj.DefaultStackTop)
		c.Bus = bus(m)
		if err := RunContext(m, c, 1000); err != nil || !c.Halted {
			t.Fatalf("run: err %v, halted %v", err, c.Halted)
		}
		return outcome{c.GPR, c.VReg, c.ZF, c.LF, c.Cycles, c.Insts, m.Mem.Hash()}
	}
	mem := run(func(m *Machine) Bus { return m.Mem })
	if mem.GPR[guest.R7] != 22 || mem.GPR[guest.R6] != 12 || mem.GPR[guest.R4] != 33 || mem.GPR[guest.R5] != 11 ||
		mem.VReg[0] != [guest.VLEN]float64{11, 22, 33, 44} || mem.GPR[guest.R11] != math.Float64bits(22) {
		t.Fatalf("program computed the wrong thing: %+v", mem)
	}
	view := run(func(m *Machine) Bus { return m.Mem.NewView() })
	opaque := run(func(m *Machine) Bus { return opaqueBus{m.Mem.NewView()} })
	if view != mem || opaque != mem {
		t.Fatalf("bus paths disagree:\n memory %+v\n   view %+v\n opaque %+v", mem, view, opaque)
	}
}

// TestRunContextBudgetExact: runs are clipped to the remaining budget,
// so a bound of k stops after exactly k instructions, on the (k+1)-th.
func TestRunContextBudgetExact(t *testing.T) {
	const n = 12
	exe := straightLine(t, n, nil)
	for k := int64(0); k <= n+1; k++ {
		m, err := NewMachine(exe)
		if err != nil {
			t.Fatal(err)
		}
		c := m.NewContext(0, obj.DefaultStackTop)
		err = RunContext(m, c, k)
		if k == n+1 {
			if err != nil || !c.Halted {
				t.Fatalf("bound %d covers the whole program: err %v, halted %v", k, err, c.Halted)
			}
		} else if err == nil || !strings.Contains(err.Error(), "exceeded") {
			t.Fatalf("bound %d: err = %v, want the step-bound error", k, err)
		}
		if want := exe.Entry + uint64(min(k, n))*guest.InstSize; c.Insts != k || c.Reg(guest.R1) != uint64(min(k, n)) || c.PC != want {
			t.Fatalf("bound %d: executed %d instructions (R1 %d), PC %#x, want PC %#x", k, c.Insts, c.Reg(guest.R1), c.PC, want)
		}
	}
}

// TestNativeFaultAddressMidRun: a fault in the middle of a run reports
// the faulting instruction's own address and leaves PC on it.
func TestNativeFaultAddressMidRun(t *testing.T) {
	exe := straightLine(t, 3, func(f *asm.FuncBuilder) {
		f.Movi(guest.R1, 10)
		f.Movi(guest.R2, 0)
		f.OpI(guest.ADDI, guest.R1, 1)
		f.Op(guest.IDIV, guest.R1, guest.R2)
	})
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewContext(0, obj.DefaultStackTop)
	fault := exe.Entry + 3*guest.InstSize
	err = RunContext(m, c, DefaultMaxSteps)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("divide by zero at %#x", fault)) {
		t.Fatalf("err = %v, want a divide fault at %#x", err, fault)
	}
	if c.PC != fault || c.Insts != 4 {
		t.Fatalf("PC %#x after %d instructions, want %#x after 4", c.PC, c.Insts, fault)
	}
}

// TestRunContextCutsRunsAtUndecodableSlots: an undecodable slot in the
// middle of the code section ends the stretch runs are sliced from;
// code on both sides of it still runs, and falling into it reports the
// decode error a single fetch reports.
func TestRunContextCutsRunsAtUndecodableSlots(t *testing.T) {
	build := func(skip bool) *obj.Executable {
		b := asm.NewBuilder("hole")
		f := b.Func("main")
		over := f.NewLabel()
		f.Movi(guest.R1, 1)
		if skip {
			f.J(guest.JMP, over)
		} else {
			f.OpI(guest.ADDI, guest.R1, 0)
		}
		// Slot 2 is overwritten below, before any machine loads the
		// executable (nothing may write to one afterwards).
		f.OpI(guest.ADDI, guest.R1, 100)
		f.Bind(over)
		f.OpI(guest.ADDI, guest.R1, 1)
		f.Halt()
		exe, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < guest.InstSize; i++ {
			exe.Code[2*guest.InstSize+i] = 0xff
		}
		return exe
	}
	exe := build(true)
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewContext(0, obj.DefaultStackTop)
	if err := RunContext(m, c, DefaultMaxSteps); err != nil || c.Reg(guest.R1) != 2 || c.Insts != 4 {
		t.Fatalf("jumping over the hole: err %v, R1 %d, %d instructions", err, c.Reg(guest.R1), c.Insts)
	}

	exe = build(false)
	if m, err = NewMachine(exe); err != nil {
		t.Fatal(err)
	}
	c = m.NewContext(0, obj.DefaultStackTop)
	hole := exe.Entry + 2*guest.InstSize
	_, want := m.FetchInst(hole)
	err = RunContext(m, c, DefaultMaxSteps)
	if want == nil || err == nil || err.Error() != want.Error() || errors.Is(err, ErrExited) {
		t.Fatalf("falling into the hole: err %v, want %v", err, want)
	}
	if c.PC != hole || c.Insts != 2 {
		t.Fatalf("PC %#x after %d instructions, want %#x after 2", c.PC, c.Insts, hole)
	}
}

package vm

import (
	"errors"
	"fmt"
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

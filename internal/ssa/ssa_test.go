package ssa

import (
	"slices"
	"testing"

	"janus/internal/asm"
	"janus/internal/cfg"
	"janus/internal/guest"
)

// buildSSA assembles a main function and returns its SSA form.
func buildSSA(t *testing.T, emit func(f *asm.FuncBuilder)) (*cfg.Func, *SSA) {
	t.Helper()
	b := asm.NewBuilder("t")
	b.Data("d", 4096)
	f := b.Func("main")
	emit(f)
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.FuncByAddr[exe.Entry]
	return fn, Build(fn)
}

func TestStraightLineDefUse(t *testing.T) {
	fn, s := buildSSA(t, func(f *asm.FuncBuilder) {
		f.Movi(guest.R1, 5)       // def v1
		f.Mov(guest.R2, guest.R1) // use v1, def v2
		f.Op(guest.ADD, guest.R2, guest.R1)
		f.Halt()
	})
	entry := fn.Entry
	// The MOV at index 1 must use the MOVI's def.
	movRef := InstRef{Block: entry, Idx: 1}
	v := s.UseOf(movRef, guest.R1)
	if v == nil || v.Kind != InstDef || v.Inst().Op != guest.MOVI {
		t.Fatalf("use of r1 at mov: %v", v)
	}
	// The ADD uses both r2 (from MOV) and r1 (from MOVI).
	addRef := InstRef{Block: entry, Idx: 2}
	if u := s.UseOf(addRef, guest.R2); u == nil || u.Inst().Op != guest.MOV {
		t.Fatalf("use of r2 at add: %v", u)
	}
	if d := s.DefOfReg(addRef, guest.R2); d == nil {
		t.Fatal("add defines r2")
	}
}

func TestParamsReachUses(t *testing.T) {
	fn, s := buildSSA(t, func(f *asm.FuncBuilder) {
		f.Mov(guest.R2, guest.R7) // r7 never defined: entry value
		f.Halt()
	})
	ref := InstRef{Block: fn.Entry, Idx: 0}
	v := s.UseOf(ref, guest.R7)
	if v == nil || v.Kind != Param {
		t.Fatalf("param not reaching: %v", v)
	}
	if v != s.Params[guest.R7] {
		t.Fatal("param identity broken")
	}
}

func TestPhiAtLoopHeader(t *testing.T) {
	fn, s := buildSSA(t, func(f *asm.FuncBuilder) {
		loop, done := f.NewLabel(), f.NewLabel()
		f.Movi(guest.R1, 0)
		f.Bind(loop)
		f.Cmpi(guest.R1, 10)
		f.J(guest.JGE, done)
		f.OpI(guest.ADDI, guest.R1, 1)
		f.J(guest.JMP, loop)
		f.Bind(done)
		f.Halt()
	})
	if len(fn.Loops) != 1 {
		t.Fatal("loop not found")
	}
	header := fn.Loops[0].Header
	phi := s.PhiFor(header, guest.R1)
	if phi == nil {
		t.Fatal("no phi for induction register")
	}
	if len(phi.Args) != len(header.Preds) {
		t.Fatalf("phi arity %d vs %d preds", len(phi.Args), len(header.Preds))
	}
	// One arg is the MOVI (entry), the other the ADDI (latch).
	var sawInit, sawLatch bool
	for _, a := range phi.Args {
		if a == nil {
			t.Fatal("nil phi arg")
		}
		if a.Kind == InstDef && a.Inst().Op == guest.MOVI {
			sawInit = true
		}
		if a.Kind == InstDef && a.Inst().Op == guest.ADDI {
			sawLatch = true
		}
	}
	if !sawInit || !sawLatch {
		t.Fatalf("phi args wrong: init=%v latch=%v", sawInit, sawLatch)
	}
}

func TestDiamondJoinPhi(t *testing.T) {
	fn, s := buildSSA(t, func(f *asm.FuncBuilder) {
		elseL, join := f.NewLabel(), f.NewLabel()
		f.Cmpi(guest.R1, 0)
		f.J(guest.JE, elseL)
		f.Movi(guest.R2, 1)
		f.J(guest.JMP, join)
		f.Bind(elseL)
		f.Movi(guest.R2, 2)
		f.Bind(join)
		f.Mov(guest.R3, guest.R2)
		f.Halt()
	})
	// Find the join block (two preds) and its phi for r2.
	var join *cfg.Block
	for _, b := range fn.Blocks {
		if len(b.Preds) == 2 {
			join = b
		}
	}
	if join == nil {
		t.Fatal("no join block")
	}
	phi := s.PhiFor(join, guest.R2)
	if phi == nil {
		t.Fatal("no phi at join")
	}
	// The MOV in the join must use the phi.
	ref := InstRef{Block: join, Idx: 0}
	if u := s.UseOf(ref, guest.R2); u != phi {
		t.Fatalf("join use is %v, want phi", u)
	}
}

func TestEntryStateSnapshots(t *testing.T) {
	fn, s := buildSSA(t, func(f *asm.FuncBuilder) {
		loop, done := f.NewLabel(), f.NewLabel()
		f.Movi(guest.R1, 0)
		f.Movi(guest.R9, 42)
		f.Bind(loop)
		f.Cmpi(guest.R1, 10)
		f.J(guest.JGE, done)
		f.OpI(guest.ADDI, guest.R1, 1)
		f.J(guest.JMP, loop)
		f.Bind(done)
		f.Halt()
	})
	header := fn.Loops[0].Header
	entry := s.EntryOf(header)
	// r9 is invariant: its header entry value is the MOVI def.
	if v := entry[guest.R9]; v == nil || v.Kind != InstDef || v.Inst().Imm != 42 {
		t.Fatalf("entry r9 = %v", v)
	}
	// r1 has a phi: the entry value must be the phi itself.
	if v := entry[guest.R1]; v == nil || v.Kind != PhiDef {
		t.Fatalf("entry r1 = %v", v)
	}
}

// TestEntryOfHeadersOnly pins EntryOf's contract: entry state is kept
// for loop headers alone, so every other block — the function entry,
// the loop body, the exit — and a block of another function read all
// nil, while the header reads its values.
func TestEntryOfHeadersOnly(t *testing.T) {
	emit := func(f *asm.FuncBuilder) {
		loop, done := f.NewLabel(), f.NewLabel()
		f.Movi(guest.R1, 0)
		f.Bind(loop)
		f.Cmpi(guest.R1, 10)
		f.J(guest.JGE, done)
		f.OpI(guest.ADDI, guest.R1, 1)
		f.J(guest.JMP, loop)
		f.Bind(done)
		f.Halt()
	}
	fn, s := buildSSA(t, emit)
	other, _ := buildSSA(t, emit)
	header := fn.Loops[0].Header
	if s.EntryOf(header)[guest.R1] == nil {
		t.Fatal("the loop header has no entry value for its iterator")
	}
	var none [guest.NumGPR]*Value
	for _, b := range append(slices.Clone(fn.Blocks), other.Loops[0].Header) {
		if b != header && s.EntryOf(b) != none {
			t.Errorf("block %#x is no loop header of the function but has entry state %v", b.Addr, s.EntryOf(b))
		}
	}
}

func TestLivenessAcrossBlocks(t *testing.T) {
	fn, s := buildSSA(t, func(f *asm.FuncBuilder) {
		skip := f.NewLabel()
		f.Movi(guest.R4, 9) // live across the branch
		f.Cmpi(guest.R1, 0)
		f.J(guest.JE, skip)
		f.Nop()
		f.Bind(skip)
		f.Mov(guest.R5, guest.R4) // r4 used here
		f.Halt()
	})
	entry := fn.Entry
	if !s.LiveOutOf(entry, guest.R4) {
		t.Fatal("r4 must be live out of entry")
	}
	if s.LiveOutOf(entry, guest.R11) {
		t.Fatal("r11 never used: must be dead")
	}
}

func TestCallClobbersBreakChains(t *testing.T) {
	b := asm.NewBuilder("t")
	f := b.Func("main")
	f.Movi(guest.R0, 7)
	f.Call("callee")
	f.Mov(guest.R6, guest.R0) // r0 here is the call's def, not the MOVI
	f.Halt()
	cal := b.Func("callee")
	cal.Movi(guest.R0, 1)
	cal.Ret()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	fn := p.FuncByAddr[exe.Entry]
	s := Build(fn)
	var afterCall *cfg.Block
	for _, b := range fn.Blocks {
		if len(b.Insts) > 0 && b.Insts[0].Op == guest.MOV && b.Insts[0].Rd == guest.R6 {
			afterCall = b
		}
	}
	if afterCall == nil {
		t.Skip("block layout differs")
	}
	ref := InstRef{Block: afterCall, Idx: 0}
	v := s.UseOf(ref, guest.R0)
	if v == nil || v.Kind != InstDef || !v.Inst().Op.IsCall() {
		t.Fatalf("use of r0 after call should be the call clobber, got %v", v)
	}
}

func TestValueStrings(t *testing.T) {
	_, s := buildSSA(t, func(f *asm.FuncBuilder) {
		f.Movi(guest.R1, 1)
		f.Halt()
	})
	for _, v := range s.Params {
		if v.String() == "" {
			t.Fatal("empty value string")
		}
	}
}

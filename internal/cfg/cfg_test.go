package cfg

import (
	"fmt"
	"strings"
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/workloads"
)

// buildNestedLoops assembles:
//
//	main:
//	  for i in 0..9:
//	    for j in 0..4:
//	      body
//	  call helper
//	  halt
//	helper: ret
func buildNestedLoops(t *testing.T) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("nested")
	f := b.Func("main")
	outer, outerDone := f.NewLabel(), f.NewLabel()
	inner, innerDone := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0) // i
	f.Bind(outer)
	f.Cmpi(guest.R1, 10)
	f.J(guest.JGE, outerDone)
	f.Movi(guest.R2, 0) // j
	f.Bind(inner)
	f.Cmpi(guest.R2, 5)
	f.J(guest.JGE, innerDone)
	f.Op(guest.ADD, guest.R3, guest.R2)
	f.OpI(guest.ADDI, guest.R2, 1)
	f.J(guest.JMP, inner)
	f.Bind(innerDone)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, outer)
	f.Bind(outerDone)
	f.Call("helper")
	f.Halt()
	h := b.Func("helper")
	h.Nop()
	h.Ret()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestBuildFindsFunctions(t *testing.T) {
	exe := buildNestedLoops(t)
	p, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("found %d functions, want 2", len(p.Funcs))
	}
	names := map[string]bool{}
	for _, fn := range p.Funcs {
		names[fn.Name] = true
	}
	if !names["main"] || !names["helper"] {
		t.Fatalf("function names: %v", names)
	}
}

func TestStrippedDiscoversCalledFunctions(t *testing.T) {
	exe := buildNestedLoops(t).Strip()
	p, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 2 {
		t.Fatalf("stripped: found %d functions, want 2 (entry + call target)", len(p.Funcs))
	}
}

func TestLoopNesting(t *testing.T) {
	exe := buildNestedLoops(t)
	p, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	main := p.FuncByAddr[exe.Entry]
	if main == nil {
		t.Fatal("no main")
	}
	if len(main.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(main.Loops))
	}
	var outer, inner *Loop
	for _, l := range main.Loops {
		if l.Depth == 1 {
			outer = l
		} else {
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("nesting depths wrong: %+v", main.Loops)
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent should be outer")
	}
	if len(outer.Children) != 1 || outer.Children[0] != inner {
		t.Error("outer loop's children wrong")
	}
	if inner.Depth != 2 {
		t.Errorf("inner depth = %d", inner.Depth)
	}
	if !outer.Contains(inner.Header) {
		t.Error("outer body must contain inner header")
	}
	if inner.Outermost() != outer {
		t.Error("Outermost broken")
	}
}

func TestLoopExits(t *testing.T) {
	exe := buildNestedLoops(t)
	p, _ := Build(exe)
	main := p.FuncByAddr[exe.Entry]
	for _, l := range main.Loops {
		if len(l.Exits) == 0 || len(l.ExitTargets) == 0 {
			t.Errorf("loop at %#x has no exits", l.Header.Addr)
		}
		for _, e := range l.Exits {
			if !l.Contains(e) {
				t.Error("exit block must be inside loop")
			}
		}
		for _, et := range l.ExitTargets {
			if l.Contains(et) {
				t.Error("exit target must be outside loop")
			}
		}
	}
}

func TestDominators(t *testing.T) {
	exe := buildNestedLoops(t)
	p, _ := Build(exe)
	main := p.FuncByAddr[exe.Entry]
	entry := main.Entry
	if main.Idom(entry) != nil {
		t.Error("entry has no idom")
	}
	for _, b := range main.Blocks {
		if !main.Dominates(entry, b) {
			t.Errorf("entry must dominate %#x", b.Addr)
		}
		if !main.Dominates(b, b) {
			t.Error("dominance must be reflexive")
		}
	}
	// A loop header dominates every block in its body.
	for _, l := range main.Loops {
		for _, b := range l.Blocks() {
			if !main.Dominates(l.Header, b) {
				t.Errorf("header %#x must dominate body %#x", l.Header.Addr, b.Addr)
			}
		}
	}
}

func TestDominanceFrontier(t *testing.T) {
	b := asm.NewBuilder("diamond")
	f := b.Func("main")
	elseL, join := f.NewLabel(), f.NewLabel()
	f.Cmpi(guest.R1, 0)
	f.J(guest.JE, elseL)
	f.Movi(guest.R2, 1)
	f.J(guest.JMP, join)
	f.Bind(elseL)
	f.Movi(guest.R2, 2)
	f.Bind(join)
	f.Halt()
	exe, _ := b.Build()
	p, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	main := p.Funcs[0]
	df := main.DominanceFrontier()
	// Both arms of the diamond have the join block in their frontier.
	joinCount := 0
	for _, blocks := range df {
		for _, x := range blocks {
			if len(x.Preds) == 2 {
				joinCount++
			}
		}
	}
	if joinCount < 2 {
		t.Fatalf("join should be in two frontiers, got %d", joinCount)
	}
}

func TestBlockStructure(t *testing.T) {
	exe := buildNestedLoops(t)
	p, _ := Build(exe)
	for _, fn := range p.Funcs {
		for _, b := range fn.Blocks {
			if len(b.Insts) == 0 {
				t.Fatalf("%s: empty block at %#x", fn.Name, b.Addr)
			}
			// Only the last instruction may end a block.
			for i, in := range b.Insts[:len(b.Insts)-1] {
				if in.Op.IsBlockEnd() {
					t.Errorf("%s: block %#x has terminator at %d", fn.Name, b.Addr, i)
				}
			}
			// Succ/pred symmetry.
			for _, s := range b.Succs {
				if !containsBlock(s.Preds, b) {
					t.Errorf("asymmetric edge %#x -> %#x", b.Addr, s.Addr)
				}
			}
		}
	}
}

func TestIndirectJumpMarksFunction(t *testing.T) {
	b := asm.NewBuilder("indirect")
	f := b.Func("main")
	f.Movi(guest.R1, int64(obj.DefaultCodeBase))
	f.I(guest.NewInst(guest.JMPI, guest.R1, guest.RegNone))
	exe, _ := b.Build()
	p, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Funcs[0].HasIndirect {
		t.Error("indirect jump not flagged")
	}
}

func TestPLTCallNotTreatedAsLocalFunction(t *testing.T) {
	b := asm.NewBuilder("pltcall")
	b.Import("ext")
	f := b.Func("main")
	f.Call("ext")
	f.Halt()
	exe, _ := b.Build()
	p, err := Build(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Funcs) != 1 {
		t.Fatalf("PLT stub must not become a function: %d funcs", len(p.Funcs))
	}
	if len(p.PLTNames) != 1 {
		t.Fatalf("PLT names: %v", p.PLTNames)
	}
}

func TestMultiExitLoop(t *testing.T) {
	b := asm.NewBuilder("multiexit")
	f := b.Func("main")
	loop, brk, done := f.NewLabel(), f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Bind(loop)
	f.Cmpi(guest.R1, 100)
	f.J(guest.JGE, done)
	f.Cmpi(guest.R1, 50)
	f.J(guest.JE, brk)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(brk)
	f.Nop()
	f.Bind(done)
	f.Halt()
	exe, _ := b.Build()
	p, _ := Build(exe)
	main := p.Funcs[0]
	if len(main.Loops) != 1 {
		t.Fatalf("loops: %d", len(main.Loops))
	}
	if len(main.Loops[0].Exits) != 2 {
		t.Fatalf("multi-exit loop should have 2 exit blocks, got %d", len(main.Loops[0].Exits))
	}
}

// predsOrder renders every block's predecessors, by address, in order.
func predsOrder(p *Program) string {
	var sb strings.Builder
	for _, fn := range p.Funcs {
		for _, b := range fn.byAddr {
			fmt.Fprintf(&sb, "%#x<-", b.Addr)
			for _, pr := range b.Preds {
				fmt.Fprintf(&sb, "%#x,", pr.Addr)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestPredsOrderStable: every block's Preds — which fix phi argument
// order and dominance-frontier order downstream — come out in the same
// order on every rebuild of every registry binary.
func TestPredsOrderStable(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, in := range []workloads.Input{workloads.Train, workloads.Ref} {
			for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
				exe, _, err := workloads.Build(name, in, opt)
				if err != nil {
					t.Fatal(err)
				}
				var first string
				for i := 0; i < 20; i++ {
					p, err := Build(exe)
					if err != nil {
						t.Fatal(err)
					}
					if got := predsOrder(p); i == 0 {
						first = got
					} else if got != first {
						t.Fatalf("%s/%s/%s: rebuild %d links predecessors in another order", name, in, opt, i)
					}
				}
			}
		}
	}
}

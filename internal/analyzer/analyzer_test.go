package analyzer

import (
	"testing"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/rules"
)

// buildMixed assembles a program with one loop of every category:
// static DOALL, static dep, dynamic (checkable), and incompatible.
func buildMixed(t *testing.T) *obj.Executable {
	t.Helper()
	b := asm.NewBuilder("mixed")
	b.Data("a", 8*512)
	b.Data("b", 8*512)
	b.Data("ptrs", 16)
	f := b.Func("main")

	// 1. Static DOALL: b[i] = a[i].
	f.MoviData(guest.R8, "a", 0)
	f.MoviData(guest.R9, "b", 0)
	l1, d1 := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Bind(l1)
	f.Cmpi(guest.R1, 256)
	f.J(guest.JGE, d1)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, l1)
	f.Bind(d1)

	// 2. Static dep: a[i+1] = a[i].
	l2, d2 := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Bind(l2)
	f.Cmpi(guest.R1, 255)
	f.J(guest.JGE, d2)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.St(guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, l2)
	f.Bind(d2)

	// 3. Dynamic (runtime pointers): needs a bounds check.
	f.MoviData(guest.R2, "a", 0)
	f.StData("ptrs", 0, guest.R2)
	f.MoviData(guest.R2, "b", 0)
	f.StData("ptrs", 8, guest.R2)
	f.LdData(guest.R10, "ptrs", 0)
	f.LdData(guest.R11, "ptrs", 8)
	l3, d3 := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 0)
	f.Bind(l3)
	f.Cmpi(guest.R1, 256)
	f.J(guest.JGE, d3)
	f.Ld(guest.R3, guest.Mem{Base: guest.R10, Index: guest.R1, Scale: 8})
	f.St(guest.Mem{Base: guest.R11, Index: guest.R1, Scale: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, l3)
	f.Bind(d3)

	// 4. Incompatible: geometric induction.
	l4, d4 := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, 1)
	f.Bind(l4)
	f.Cmpi(guest.R1, 512)
	f.J(guest.JGE, d4)
	f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R1)
	f.OpI(guest.SHLI, guest.R1, 1)
	f.J(guest.JMP, l4)
	f.Bind(d4)
	f.Halt()

	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return exe.Strip()
}

func TestClassification(t *testing.T) {
	p, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	counts := p.ClassCounts()
	if counts[ClassStaticDOALL] != 1 {
		t.Errorf("static DOALL: %d", counts[ClassStaticDOALL])
	}
	if counts[ClassStaticDep] != 1 {
		t.Errorf("static dep: %d", counts[ClassStaticDep])
	}
	if counts[ClassDynDOALL] != 1 {
		t.Errorf("dynamic: %d", counts[ClassDynDOALL])
	}
	if counts[ClassIncompatible] != 1 {
		t.Errorf("incompatible: %d", counts[ClassIncompatible])
	}
}

func TestSelectionConfigurations(t *testing.T) {
	p, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	// Without checks: only the static DOALL loop.
	sel := p.SelectLoops(SelectOptions{})
	if len(sel) != 1 || sel[0].Class != ClassStaticDOALL {
		t.Fatalf("static selection: %d loops", len(sel))
	}
	// With checks: also the checkable dynamic loop.
	sel = p.SelectLoops(SelectOptions{UseChecks: true})
	if len(sel) != 2 {
		t.Fatalf("checks selection: %d loops", len(sel))
	}
	// Profile filter drops low-coverage loops.
	for _, li := range p.Loops {
		li.Coverage = 0.001
		li.AvgIter = 256
	}
	sel = p.SelectLoops(SelectOptions{UseProfile: true, MinCoverage: 0.01, UseChecks: true})
	if len(sel) != 0 {
		t.Fatalf("coverage filter failed: %d", len(sel))
	}
	// Avg-iteration filter drops high-invocation loops.
	for _, li := range p.Loops {
		li.Coverage = 0.5
		li.AvgIter = 8
	}
	sel = p.SelectLoops(SelectOptions{UseProfile: true, MinCoverage: 0.01, UseChecks: true})
	if len(sel) != 0 {
		t.Fatalf("avg-iter filter failed: %d", len(sel))
	}
}

func TestDependenceProfilingDemotesToTypeD(t *testing.T) {
	p, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	var dyn *LoopInfo
	for _, li := range p.Loops {
		if li.Class == ClassDynDOALL {
			dyn = li
		}
	}
	if dyn == nil {
		t.Fatal("no dynamic loop")
	}
	p.ApplyDependences(map[int]bool{dyn.ID: true})
	if dyn.Class != ClassDynDep {
		t.Fatalf("class after observed dep: %s", dyn.Class)
	}
	sel := p.SelectLoops(SelectOptions{UseChecks: true})
	for _, li := range sel {
		if li == dyn {
			t.Fatal("type-D loop must not be selected")
		}
	}
}

func TestScheduleGeneration(t *testing.T) {
	p, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	p.SelectLoops(SelectOptions{UseChecks: true})
	sched, err := p.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[rules.ID]int{}
	for _, r := range sched.Rules {
		ids[r.ID]++
	}
	if ids[rules.LOOP_INIT] != 2 || ids[rules.LOOP_FINISH] != 2 {
		t.Errorf("loop init/finish counts: %v", ids)
	}
	if ids[rules.LOOP_UPDATE_BOUND] != 2 {
		t.Errorf("bound rules: %d", ids[rules.LOOP_UPDATE_BOUND])
	}
	if ids[rules.MEM_BOUNDS_CHECK] != 1 {
		t.Errorf("check rules: %d", ids[rules.MEM_BOUNDS_CHECK])
	}
	if ids[rules.THREAD_SCHEDULE] != 2 || ids[rules.THREAD_YIELD] != 2 {
		t.Errorf("thread rules: %v", ids)
	}
	// Round-trip through bytes.
	img, err := sched.Save()
	if err != nil {
		t.Fatal(err)
	}
	back, err := rules.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rules) != len(sched.Rules) {
		t.Fatal("schedule round trip lost rules")
	}
}

func TestProfileScheduleCoversAllLoops(t *testing.T) {
	p, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	sched := p.GenProfileSchedule()
	iters := map[int32]bool{}
	for _, r := range sched.Rules {
		if r.ID == rules.PROF_LOOP_ITER {
			iters[r.LoopID] = true
		}
	}
	if len(iters) != len(p.Loops) {
		t.Fatalf("instrumented %d of %d loops", len(iters), len(p.Loops))
	}
	// The dynamic loop's accesses are instrumented for dependences.
	memRules := 0
	for _, r := range sched.Rules {
		if r.ID == rules.PROF_MEM_ACCESS {
			memRules++
		}
	}
	if memRules == 0 {
		t.Fatal("no dependence instrumentation")
	}
}

func TestIOLoopIncompatible(t *testing.T) {
	b := asm.NewBuilder("io")
	f := b.Func("main")
	l, d := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R6, 0)
	f.Bind(l)
	f.Cmpi(guest.R6, 10)
	f.J(guest.JGE, d)
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R6)
	f.Syscall()
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, l)
	f.Bind(d)
	f.Halt()
	exe, _ := b.Build()
	p, err := Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) != 1 || p.Loops[0].Class != ClassIncompatible {
		t.Fatalf("IO loop classified %s", p.Loops[0].Class)
	}
}

func TestPureCalleeAllowed(t *testing.T) {
	b := asm.NewBuilder("purecall")
	b.Data("a", 8*256)
	f := b.Func("main")
	l, d := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, "a", 0)
	f.Movi(guest.R6, 0)
	f.Bind(l)
	f.Cmpi(guest.R6, 256)
	f.J(guest.JGE, d)
	f.Mov(guest.R1, guest.R6)
	f.Call("triple") // pure: no stores, no syscalls
	f.St(guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8}, guest.R0)
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, l)
	f.Bind(d)
	f.Halt()
	tr := b.Func("triple")
	tr.Mov(guest.R0, guest.R1)
	tr.OpI(guest.IMULI, guest.R0, 3)
	tr.Ret()
	exe, _ := b.Build()
	p, err := Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	main := p.Loops[0]
	if main.Class == ClassIncompatible {
		t.Fatalf("pure callee rejected: %s", main.Rejected)
	}
}

func TestImpureCalleeRejected(t *testing.T) {
	b := asm.NewBuilder("impure")
	b.Data("a", 8*256)
	b.Data("g", 8)
	f := b.Func("main")
	l, d := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R6, 0)
	f.Bind(l)
	f.Cmpi(guest.R6, 256)
	f.J(guest.JGE, d)
	f.Call("bump") // impure: writes a global
	f.OpI(guest.ADDI, guest.R6, 1)
	f.J(guest.JMP, l)
	f.Bind(d)
	f.Halt()
	g := b.Func("bump")
	g.LdData(guest.R0, "g", 0)
	g.OpI(guest.ADDI, guest.R0, 1)
	g.StData("g", 0, guest.R0)
	g.Ret()
	exe, _ := b.Build()
	p, err := Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	if p.Loops[0].Class != ClassIncompatible {
		t.Fatalf("impure callee accepted: %s", p.Loops[0].Class)
	}
}

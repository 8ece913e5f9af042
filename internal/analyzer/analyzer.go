// Package analyzer is the Janus static binary analyser: it disassembles
// an executable, recovers control flow, runs the SSA/symbolic/alias
// analyses over every loop, classifies loops into the paper's five
// categories, selects loops for parallelisation, and generates the
// profiling and parallelisation rewrite schedules that drive the DBM.
package analyzer

import (
	"janus/internal/alias"
	"janus/internal/cfg"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/ssa"
	"janus/internal/sym"
)

// Class is a loop category (paper §II-D).
type Class uint8

const (
	// ClassIncompatible loops were never candidates: IO, syscalls,
	// indirect flow, unrecognisable induction variables.
	ClassIncompatible Class = iota
	// ClassStaticDOALL (type A): no cross-iteration dependences except
	// induction/reduction, proven statically.
	ClassStaticDOALL
	// ClassStaticDep (type B): statically identified cross-iteration
	// dependences.
	ClassStaticDep
	// ClassDynDOALL (type C): statically ambiguous accesses but no
	// dependence observed under profiling (parallelisable with checks
	// or speculation).
	ClassDynDOALL
	// ClassDynDep (type D): ambiguous accesses with dependences
	// observed during profiling.
	ClassDynDep
)

func (c Class) String() string {
	switch c {
	case ClassStaticDOALL:
		return "static-DOALL"
	case ClassStaticDep:
		return "static-dep"
	case ClassDynDOALL:
		return "dynamic-DOALL"
	case ClassDynDep:
		return "dynamic-dep"
	}
	return "incompatible"
}

// Check names one condition a loop must meet to be parallelised: the
// value is its stable name, the doc comment its description. The checks
// are listed by stage, in the order the stages run them.
type Check string

const (
	// Classification (§II-C's feasibility filter, then §II-D's static
	// dependence classes), run by Analyze.

	// IndirectFlow: the loop body jumps or calls through a register.
	IndirectFlow Check = "indirect-flow"
	// Syscall: the loop body performs IO or another system call.
	Syscall Check = "syscall"
	// ImpureCallee: a callee stores, calls, makes a syscall, jumps indirectly or was not analysed.
	ImpureCallee Check = "impure-callee"
	// NoIterator: no exit condition yields an affine loop iterator.
	NoIterator Check = "no-iterator"
	// CarriedRegister: a register carries a value across iterations (type B).
	CarriedRegister Check = "carried-register"
	// MemoryDependence: a cross-iteration memory dependence is proven (type B).
	MemoryDependence Check = "memory-dependence"

	// Profiling, run by ApplyDependences.

	// ObservedDependence: dependence profiling saw a cross-iteration conflict (type D).
	ObservedDependence Check = "observed-dependence"

	// Selection (§II-D), run by SelectLoops on type-A and type-C loops.

	// ChecksOff: a type-C loop needs runtime checks, and UseChecks is off.
	ChecksOff Check = "checks-off"
	// Unchecked: a cross-base pair has no range check, and profiling has not cleared it.
	Unchecked Check = "unchecked"
	// Unanalysable: accesses are unanalysable, and profiling has not cleared them.
	Unanalysable Check = "unanalysable"
	// UnknownTrip: the trip count is not computable before the loop (or it has several exits).
	UnknownTrip Check = "unknown-trip"
	// NoPreheader: the header has no unique predecessor outside the loop.
	NoPreheader Check = "no-preheader"
	// LowCoverage: profiled coverage is below MinCoverage.
	LowCoverage Check = "low-coverage"
	// FewIterations: the profiled mean trip count is below DefaultMinAvgIter.
	FewIterations Check = "few-iterations"
	// Nested: an enclosing loop was selected.
	Nested Check = "nested"

	// Source-compiler models, applied by package compilers after SelectLoops.

	// LibraryCall: the loop calls library code, which a compiler cannot speculate on.
	LibraryCall Check = "library-call"
	// AnyCall: the loop calls a subroutine, which gcc's model gives up on.
	AnyCall Check = "any-call"
)

// LoopInfo is the analyser's complete record for one loop.
type LoopInfo struct {
	ID   int
	Loop *cfg.Loop
	Sym  *sym.Analysis
	Dep  *alias.Result

	Class Class
	// Rejected is the first check the loop failed, or "" while it
	// passes every check run so far.
	Rejected Check

	// LibCalls are PLT call sites (addr -> import name) inside the
	// loop; they demand TX speculation.
	LibCalls map[uint64]string

	// Coverage is the profiled fraction of dynamic instructions spent
	// in the loop (filled by ApplyCoverage).
	Coverage float64
	// ExclCoverage attributes instructions only to the innermost loop.
	ExclCoverage float64
	// AvgIter is the profiled mean iterations per invocation; loops
	// with high invocation counts and few iterations are unprofitable.
	AvgIter float64
	// DepProfiled / ObservedDep record dependence-profiling outcomes.
	DepProfiled bool
	ObservedDep bool

	// Selected marks the loop chosen for parallelisation.
	Selected bool
}

// Program is the analysed executable.
type Program struct {
	Exe *obj.Executable
	CFG *cfg.Program
	SSA map[*cfg.Func]*ssa.SSA
	// Loops is indexed by loop ID, which Analyze assigns as each
	// cfg.Loop's ID.
	Loops []*LoopInfo

	// UnknownProfileIDs counts profile records whose loop ID resolved
	// to no analysed loop when applied via ApplyCoverage/
	// ApplyExclCoverage/ApplyAvgIters/ApplyDependences. Profiles are
	// keyed by deterministic layout-derived IDs, so a nonzero count
	// means the train and ref builds skewed — silently dropping the
	// records would hide exactly that bug.
	UnknownProfileIDs int
}

// Analyze runs the full static analysis over exe.
func Analyze(exe *obj.Executable) (*Program, error) {
	cp, err := cfg.Build(exe)
	if err != nil {
		return nil, err
	}
	p := &Program{
		Exe: exe,
		CFG: cp,
		SSA: make(map[*cfg.Func]*ssa.SSA),
	}
	for _, fn := range cp.Funcs {
		p.SSA[fn] = ssa.Build(fn)
	}
	for _, fn := range cp.Funcs {
		for _, l := range fn.Loops {
			l.ID = len(p.Loops)
			p.Loops = append(p.Loops, &LoopInfo{ID: l.ID, Loop: l, LibCalls: map[uint64]string{}})
		}
	}
	for _, li := range p.Loops {
		p.analyzeLoop(li)
	}
	return p, nil
}

// Fork returns a copy of p whose per-loop verdicts — Class, Rejected,
// the profile fields, Selected — and UnknownProfileIDs the Apply*
// mutators and SelectLoops may rewrite without touching p's: the
// header and every LoopInfo are copied by value, while the analyses
// they point to (CFG, SSA, Loop, Sym, Dep, LibCalls), which nothing
// writes after Analyze, are shared.
func (p *Program) Fork() *Program {
	f := *p
	loops := make([]LoopInfo, len(p.Loops))
	f.Loops = make([]*LoopInfo, len(p.Loops))
	for i, li := range p.Loops {
		loops[i] = *li
		f.Loops[i] = &loops[i]
	}
	return &f
}

// LoopByID returns the loop record with the given id.
func (p *Program) LoopByID(id int) *LoopInfo {
	if id < 0 || id >= len(p.Loops) {
		return nil
	}
	return p.Loops[id]
}

// analyzeLoop runs sym+alias analysis and pre-profiling classification.
func (p *Program) analyzeLoop(li *LoopInfo) {
	l := li.Loop
	s := p.SSA[l.Fn]
	li.Sym = sym.Analyze(l, s)
	li.Dep = alias.Analyze(li.Sym)

	// Feasibility filter (paper §II-C): reject loops with IO,
	// syscalls, indirect flow, non-returning or impure subroutines, or
	// unrecognisable induction variables.
	li.Class = ClassIncompatible
	if l.HasIndirect {
		li.Rejected = IndirectFlow
		return
	}
	if p.loopHasSyscall(l) {
		li.Rejected = Syscall
		return
	}
	for _, target := range l.CallTargets {
		if name, ok := p.CFG.PLTNames[target]; ok {
			li.LibCalls[p.callSiteFor(l, target)] = name
			continue
		}
		if callee := p.CFG.FuncByAddr[target]; callee == nil || !p.calleePure(callee) {
			li.Rejected = ImpureCallee
			return
		}
	}
	if li.Sym.MainIV == nil {
		li.Rejected = NoIterator
		return
	}

	// Dependence-based classification.
	li.Class = ClassStaticDep
	if len(li.Sym.CarriedRegs) > 0 {
		li.Rejected = CarriedRegister
		return
	}
	if len(li.Dep.Deps) > 0 {
		li.Rejected = MemoryDependence
		return
	}
	// Accesses that need a runtime check, that no check can close, that
	// are unanalysable, or that library code makes leave the loop type C
	// until dependence profiling, which may demote it to type D.
	li.Class = ClassStaticDOALL
	if len(li.Dep.Checks) > 0 || li.Dep.CheckFailed || len(li.Dep.Unanalyzable) > 0 || len(li.LibCalls) > 0 {
		li.Class = ClassDynDOALL
	}
}

// callSiteFor finds the address of the call instruction in l targeting
// the given address.
func (p *Program) callSiteFor(l *cfg.Loop, target uint64) uint64 {
	for _, b := range l.Blocks() {
		for i, in := range b.Insts {
			if in.Op == guest.CALL && uint64(in.Imm) == target {
				return b.InstAddr(i)
			}
		}
	}
	return 0
}

func (p *Program) loopHasSyscall(l *cfg.Loop) bool {
	for _, b := range l.Blocks() {
		for _, in := range b.Insts {
			if in.Op == guest.SYSCALL {
				return true
			}
		}
	}
	return false
}

// calleePure reports whether fn can be invoked from a parallel loop
// without further analysis: no heap/global stores, no syscalls, no
// nested calls, no indirect flow. Stack push/pop balance is fine (each
// thread has a private stack).
func (p *Program) calleePure(fn *cfg.Func) bool {
	if fn.HasIndirect || fn.HasSyscall {
		return false
	}
	if len(fn.Calls) > 0 {
		return false
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Insts {
			switch in.Op {
			case guest.ST, guest.STI, guest.VST:
				return false
			}
		}
	}
	return true
}

// ApplyCoverage installs profiled loop coverage fractions (loop ID ->
// fraction of dynamic instructions). Records naming loop IDs outside
// the program are counted in UnknownProfileIDs.
func (p *Program) ApplyCoverage(cov map[int]float64) {
	for id, f := range cov {
		li := p.LoopByID(id)
		if li == nil {
			p.UnknownProfileIDs++
			continue
		}
		li.Coverage = f
	}
}

// ApplyExclCoverage installs innermost-attributed coverage fractions.
// Unknown loop IDs are counted in UnknownProfileIDs.
func (p *Program) ApplyExclCoverage(cov map[int]float64) {
	for id, f := range cov {
		li := p.LoopByID(id)
		if li == nil {
			p.UnknownProfileIDs++
			continue
		}
		li.ExclCoverage = f
	}
}

// ApplyAvgIters installs profiled mean iterations per invocation.
// Unknown loop IDs are counted in UnknownProfileIDs.
func (p *Program) ApplyAvgIters(avg map[int]float64) {
	for id, a := range avg {
		li := p.LoopByID(id)
		if li == nil {
			p.UnknownProfileIDs++
			continue
		}
		li.AvgIter = a
	}
}

// ApplyDependences installs dependence-profiling outcomes: loops whose
// profiled runs exhibited a cross-iteration dependence become type D,
// the rest of the ambiguous set is confirmed type C. Unknown loop IDs
// are counted in UnknownProfileIDs.
func (p *Program) ApplyDependences(observed map[int]bool) {
	for id, dep := range observed {
		li := p.LoopByID(id)
		if li == nil {
			p.UnknownProfileIDs++
			continue
		}
		li.DepProfiled = true
		li.ObservedDep = dep
		if li.Class == ClassDynDOALL && dep {
			li.Class, li.Rejected = ClassDynDep, ObservedDependence
		}
	}
}

// ClassCounts returns the number of loops in each class.
func (p *Program) ClassCounts() map[Class]int {
	out := map[Class]int{}
	for _, li := range p.Loops {
		out[li.Class]++
	}
	return out
}

// Package analyzer is the Janus static binary analyser: it disassembles
// an executable, recovers control flow, runs the SSA/symbolic/alias
// analyses over every loop, classifies loops into the paper's five
// categories, selects loops for parallelisation, and generates the
// profiling and parallelisation rewrite schedules that drive the DBM.
package analyzer

import (
	"fmt"

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

// LoopInfo is the analyser's complete record for one loop.
type LoopInfo struct {
	ID   int
	Loop *cfg.Loop
	Sym  *sym.Analysis
	Dep  *alias.Result

	Class   Class
	Reasons []string

	// Ambiguous is set when static analysis alone cannot decide DOALL
	// (the loop sits between type C and D until dependence profiling).
	Ambiguous bool
	// NeedsChecks: runtime bounds checks are required for safety.
	NeedsChecks bool
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

func (li *LoopInfo) reason(format string, args ...any) {
	li.Reasons = append(li.Reasons, fmt.Sprintf(format, args...))
}

// Program is the analysed executable.
type Program struct {
	Exe   *obj.Executable
	CFG   *cfg.Program
	SSA   map[*cfg.Func]*ssa.SSA
	Loops []*LoopInfo
	// byLoop maps cfg loops to their info records.
	byLoop map[*cfg.Loop]*LoopInfo

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
		Exe:    exe,
		CFG:    cp,
		SSA:    make(map[*cfg.Func]*ssa.SSA),
		byLoop: make(map[*cfg.Loop]*LoopInfo),
	}
	for _, fn := range cp.Funcs {
		p.SSA[fn] = ssa.Build(fn)
	}
	id := 0
	for _, fn := range cp.Funcs {
		for _, l := range fn.Loops {
			l.ID = id
			li := &LoopInfo{ID: id, Loop: l, LibCalls: map[uint64]string{}}
			p.Loops = append(p.Loops, li)
			p.byLoop[l] = li
			id++
		}
	}
	for _, li := range p.Loops {
		p.analyzeLoop(li)
	}
	return p, nil
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
	if l.HasIndirect {
		li.Class = ClassIncompatible
		li.reason("indirect control flow")
		return
	}
	if p.loopHasSyscall(l) {
		li.Class = ClassIncompatible
		li.reason("performs IO or syscalls")
		return
	}
	for _, target := range l.CallTargets {
		if name, ok := p.CFG.PLTNames[target]; ok {
			li.LibCalls[p.callSiteFor(l, target)] = name
			continue
		}
		callee := p.CFG.FuncByAddr[target]
		if callee == nil {
			li.Class = ClassIncompatible
			li.reason("call to unknown address %#x", target)
			return
		}
		if !p.calleePure(callee) {
			li.Class = ClassIncompatible
			li.reason("call to impure subroutine %s", callee.Name)
			return
		}
	}
	if li.Sym.MainIV == nil {
		li.Class = ClassIncompatible
		li.reason("loop iterator not recognised: %s", li.Sym.Reason)
		return
	}

	// Dependence-based classification.
	if len(li.Sym.CarriedRegs) > 0 {
		li.Class = ClassStaticDep
		li.reason("cross-iteration register dependence via %v", li.Sym.CarriedRegs)
		return
	}
	if len(li.Dep.Deps) > 0 {
		li.Class = ClassStaticDep
		for _, d := range li.Dep.Deps {
			li.reason("memory dependence (%s) at %#x", d.Kind, d.A.Ref.Addr())
		}
		return
	}

	ambiguous := len(li.Dep.Unanalyzable) > 0 || len(li.LibCalls) > 0
	needsChecks := len(li.Dep.Checks) > 0
	if li.Dep.CheckFailed {
		// Cross-base ambiguity exists but no runtime check can close
		// it: only profiling + speculation could help; treat as
		// ambiguous without checks.
		ambiguous = true
	}
	switch {
	case !ambiguous && !needsChecks:
		li.Class = ClassStaticDOALL
	default:
		// Until dependence profiling runs, assume type C; profiling
		// may demote to type D.
		li.Class = ClassDynDOALL
		li.Ambiguous = ambiguous
		li.NeedsChecks = needsChecks
		if needsChecks {
			li.reason("requires %d-range bounds check", len(li.Dep.Checks))
		}
		if len(li.LibCalls) > 0 {
			li.reason("shared-library calls need speculation")
		}
		if len(li.Dep.Unanalyzable) > 0 {
			li.reason("%d statically unanalysable accesses", len(li.Dep.Unanalyzable))
		}
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
			li.Class = ClassDynDep
			li.reason("dependence observed during profiling")
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

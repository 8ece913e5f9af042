package sym

import (
	"fmt"

	"janus/internal/cfg"
	"janus/internal/guest"
	"janus/internal/ssa"
)

// Induction is a basic induction variable: a header phi whose value at
// canonical iteration i is Init + Step·i.
type Induction struct {
	Phi  *ssa.Value
	Reg  guest.Reg
	Init Expr
	Step int64
}

// Reduction is an accumulation carried around the back edge through
// associative updates (sum or product), mergeable across threads.
type Reduction struct {
	Phi *ssa.Value
	Reg guest.Reg
	// Op is the normalised merge operation: guest.ADD (covers ADD/SUB),
	// guest.FADD (covers FADD/FSUB) or guest.FMUL.
	Op guest.Op
}

// Access is a memory access in the loop with its canonical address
// polynomial. Addr.Iter is the stride per iteration.
type Access struct {
	Ref   ssa.InstRef
	Write bool
	Width int64
	Addr  Expr
}

// RoundMode says how a trip-count division rounds.
type RoundMode uint8

const (
	// RoundCeil divides rounding towards +inf.
	RoundCeil RoundMode = iota
	// RoundExact requires divisibility (equality-exit loops); program
	// semantics guarantee it, since otherwise the original loop would
	// not terminate.
	RoundExact
)

// Trip is a symbolic iteration count: max(0, Num/Den) with the given
// rounding, where Num is invariant and Den = |step| > 0.
type Trip struct {
	Num   Expr
	Den   int64
	Round RoundMode
}

// Count evaluates the trip count against the loop-entry register file.
func (t Trip) Count(regs func(guest.Reg) uint64) int64 {
	num := t.Num.Eval(regs, 0)
	if num <= 0 {
		return 0
	}
	switch t.Round {
	case RoundExact:
		return num / t.Den
	default:
		return (num + t.Den - 1) / t.Den
	}
}

// IsStatic reports whether the count is a compile-time constant, and the
// constant.
func (t Trip) IsStatic() (int64, bool) {
	if !t.Num.IsConst() {
		return 0, false
	}
	n := t.Num.Const
	if n <= 0 {
		return 0, true
	}
	if t.Round == RoundExact {
		return n / t.Den, true
	}
	return (n + t.Den - 1) / t.Den, true
}

// Analysis is the symbolic summary of one loop.
type Analysis struct {
	Loop *cfg.Loop
	S    *ssa.SSA

	// Preheader is the unique out-of-loop predecessor of the header
	// (nil when the header has several outside predecessors).
	Preheader *cfg.Block
	// EntryVals gives, per register, the SSA value it holds when the
	// loop is entered from outside (nil when unknown).
	EntryVals [guest.NumGPR]*ssa.Value

	Inductions []Induction
	Reductions []Reduction
	Accesses   []Access

	// MainIV is the induction variable that controls the analysed exit.
	MainIV *Induction
	// Trip is the symbolic iteration count (nil if unsolvable).
	Trip *Trip
	// ExitBlock is the block whose condition defines Trip.
	ExitBlock *cfg.Block
	// BoundOperand describes how the exit compare consumes the bound:
	// a register (BoundReg) or an immediate (BoundImm in the compare).
	BoundIsImm bool
	BoundReg   guest.Reg
	// CmpAddr is the address of the exit compare instruction.
	CmpAddr uint64
	// LeaveOp is the normalised leave-loop comparison: the loop exits
	// when `iv LeaveOp bound` holds (inversion for fall-through exits
	// and operand swaps already applied).
	LeaveOp guest.Op

	// CarriedRegs are header phis that are neither induction nor
	// reduction: genuine cross-iteration register dependencies.
	CarriedRegs []guest.Reg
	// LiveOutRegs are registers defined in the loop and live into the
	// exit targets (their final values must be reconstructed).
	LiveOutRegs []guest.Reg

	// Irregular is set when the loop's control could not be understood
	// (no recognisable induction, unanalysable exit, indirect flow).
	Irregular bool
	Reason    string

	// memo is what the analysis knows of each value the loop defines:
	// the phis in phiIDs, then the instruction defs in defIDs (slot).
	// exprs holds the expressions it refers to. Both are dropped when
	// Analyze returns, so an Analysis is read-only from then on.
	memo           []valMemo
	exprs          []Expr
	phiIDs, defIDs ssa.IDRange
}

// valMemo is what one loop's analysis knows of one SSA value.
type valMemo struct {
	// expr is 1 + the index of the value's expression in exprs, 0 when
	// not yet computed, and visiting while it is being computed.
	expr int32
	// ind is 1 + the index of the induction the value is the phi of.
	ind int32
	// red marks a reduction phi.
	red bool
}

const visiting = -1

// Analyze builds the symbolic summary of loop under s.
func Analyze(loop *cfg.Loop, s *ssa.SSA) *Analysis {
	a := &Analysis{Loop: loop, S: s}
	a.phiIDs, a.defIDs = s.LoopValues(loop)
	a.memo = make([]valMemo, a.phiIDs.Len()+a.defIDs.Len())
	a.findPreheader()
	a.findEntryVals()
	a.findInductionsAndReductions()
	a.collectAccesses()
	a.solveTrip()
	a.findCarriedAndLiveOut()
	if loop.HasIndirect {
		a.fail("indirect control flow in loop body")
	}
	a.memo, a.exprs = nil, nil
	return a
}

// slot is the memo entry of v, a value the loop defines, and nil for a
// value defined outside it: that one is an invariant atom whose
// expression exprOfOutside derives afresh.
func (a *Analysis) slot(v *ssa.Value) *valMemo {
	switch {
	case a.phiIDs.Has(v):
		return &a.memo[v.ID-a.phiIDs.Lo]
	case a.defIDs.Has(v):
		return &a.memo[a.phiIDs.Len()+v.ID-a.defIDs.Lo]
	}
	return nil
}

func (a *Analysis) fail(reason string) {
	if !a.Irregular {
		a.Irregular = true
		a.Reason = reason
	}
}

func (a *Analysis) findPreheader() {
	var outside []*cfg.Block
	for _, p := range a.Loop.Header.Preds {
		if !a.Loop.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		a.Preheader = outside[0]
	}
}

// findEntryVals records, for each register, the SSA value flowing into
// the loop from outside: the phi argument from the preheader when the
// header has a phi for that register, otherwise the header entry value.
func (a *Analysis) findEntryVals() {
	header := a.Loop.Header
	entry := a.S.EntryOf(header)
	for r := guest.Reg(0); r < guest.NumGPR; r++ {
		v := entry[r]
		if phi := a.S.PhiFor(header, r); phi != nil {
			if a.Preheader == nil {
				continue
			}
			for i, p := range header.Preds {
				if p == a.Preheader {
					v = phi.Args[i]
				}
			}
		}
		a.EntryVals[r] = v
	}
}

// latchArg returns the value phi receives from inside the loop. Loops
// with several latches must agree; otherwise nil.
func (a *Analysis) latchArg(phi *ssa.Value) *ssa.Value {
	var got *ssa.Value
	for i, p := range a.Loop.Header.Preds {
		if a.Loop.Contains(p) {
			arg := phi.Args[i]
			if got != nil && got != arg {
				return nil
			}
			got = arg
		}
	}
	return got
}

// initArg returns the value phi receives from outside the loop.
func (a *Analysis) initArg(phi *ssa.Value) *ssa.Value {
	var got *ssa.Value
	for i, p := range a.Loop.Header.Preds {
		if !a.Loop.Contains(p) {
			arg := phi.Args[i]
			if got != nil && got != arg {
				return nil
			}
			got = arg
		}
	}
	return got
}

func (a *Analysis) findInductionsAndReductions() {
	for _, phi := range a.S.PhisAt(a.Loop.Header) {
		if phi.IsFlags {
			continue
		}
		latch := a.latchArg(phi)
		initV := a.initArg(phi)
		if latch == nil || initV == nil {
			continue
		}
		if step, ok := a.stepOf(latch, phi, 0); ok && step != 0 {
			init := a.exprOfOutside(initV)
			ind := Induction{Phi: phi, Reg: phi.Reg, Init: init, Step: step}
			a.Inductions = append(a.Inductions, ind)
			a.slot(phi).ind = int32(len(a.Inductions))
			continue
		}
		if op, ok := a.reductionOf(latch, phi); ok {
			a.Reductions = append(a.Reductions, Reduction{Phi: phi, Reg: phi.Reg, Op: op})
			a.slot(phi).red = true
		}
	}
}

// inductionOf returns the induction whose phi v is, or nil.
func (a *Analysis) inductionOf(v *ssa.Value) *Induction {
	if m := a.slot(v); m != nil && m.ind > 0 {
		return &a.Inductions[m.ind-1]
	}
	return nil
}

// isReduction reports whether v is a reduction's phi.
func (a *Analysis) isReduction(v *ssa.Value) bool {
	m := a.slot(v)
	return m != nil && m.red
}

// stepOf reports whether value v equals phi + k for a constant k,
// following copies and additive updates. depth bounds the walk.
func (a *Analysis) stepOf(v, phi *ssa.Value, depth int) (int64, bool) {
	if depth > 32 || v == nil {
		return 0, false
	}
	if v == phi {
		return 0, true
	}
	if v.Kind != ssa.InstDef || !a.Loop.Contains(v.Block) {
		return 0, false
	}
	ref := ssa.InstRef{Block: v.Block, Idx: v.InstIdx}
	in := v.Inst()
	use := func(r guest.Reg) *ssa.Value { return a.S.UseOf(ref, r) }
	switch in.Op {
	case guest.MOV:
		return a.stepOf(use(in.Rs), phi, depth+1)
	case guest.ADDI:
		k, ok := a.stepOf(use(in.Rd), phi, depth+1)
		return k + in.Imm, ok
	case guest.SUBI:
		k, ok := a.stepOf(use(in.Rd), phi, depth+1)
		return k - in.Imm, ok
	case guest.INC:
		k, ok := a.stepOf(use(in.Rd), phi, depth+1)
		return k + 1, ok
	case guest.DEC:
		k, ok := a.stepOf(use(in.Rd), phi, depth+1)
		return k - 1, ok
	case guest.ADD:
		if e := a.valueExpr(use(in.Rs)); e.IsConst() {
			k, ok := a.stepOf(use(in.Rd), phi, depth+1)
			return k + e.Const, ok
		}
		if e := a.valueExpr(use(in.Rd)); e.IsConst() {
			k, ok := a.stepOf(use(in.Rs), phi, depth+1)
			return k + e.Const, ok
		}
	case guest.SUB:
		if e := a.valueExpr(use(in.Rs)); e.IsConst() {
			k, ok := a.stepOf(use(in.Rd), phi, depth+1)
			return k - e.Const, ok
		}
	case guest.LEA:
		if in.M.Index == guest.RegNone && in.M.Base != guest.RegNone {
			k, ok := a.stepOf(use(in.M.Base), phi, depth+1)
			return k + in.M.Disp, ok
		}
	}
	return 0, false
}

// reductionOf recognises latch values of the form acc = acc ⊕ x.
func (a *Analysis) reductionOf(v, phi *ssa.Value) (guest.Op, bool) {
	if v == nil || v.Kind != ssa.InstDef || !a.Loop.Contains(v.Block) {
		return 0, false
	}
	ref := ssa.InstRef{Block: v.Block, Idx: v.InstIdx}
	in := v.Inst()
	switch in.Op {
	case guest.MOV:
		return a.reductionOf(a.S.UseOf(ref, in.Rs), phi)
	case guest.ADD, guest.SUB:
		if a.reachesPhi(a.S.UseOf(ref, in.Rd), phi, 0) {
			return guest.ADD, true
		}
	case guest.FADD, guest.FSUB:
		if a.reachesPhi(a.S.UseOf(ref, in.Rd), phi, 0) {
			return guest.FADD, true
		}
	case guest.FMUL:
		if a.reachesPhi(a.S.UseOf(ref, in.Rd), phi, 0) {
			return guest.FMUL, true
		}
	}
	return 0, false
}

func (a *Analysis) reachesPhi(v, phi *ssa.Value, depth int) bool {
	if v == nil || depth > 32 {
		return false
	}
	if v == phi {
		return true
	}
	if v.Kind == ssa.InstDef && a.Loop.Contains(v.Block) && v.Inst().Op == guest.MOV {
		ref := ssa.InstRef{Block: v.Block, Idx: v.InstIdx}
		return a.reachesPhi(a.S.UseOf(ref, v.Inst().Rs), phi, depth+1)
	}
	return false
}

// exprOfOutside canonicalises a value defined outside the loop in terms
// of loop-entry registers.
func (a *Analysis) exprOfOutside(v *ssa.Value) Expr {
	if v == nil {
		return UnknownExpr()
	}
	// Fold through the defining chain first so that constants stay
	// constants (a loop whose iterator starts at `movi r1, 0` has a
	// static initial value even though r1 is also the entry register).
	if v.Kind == ssa.InstDef {
		ref := ssa.InstRef{Block: v.Block, Idx: v.InstIdx}
		in := v.Inst()
		var e Expr = UnknownExpr()
		switch in.Op {
		case guest.MOVI:
			e = ConstExpr(in.Imm)
		case guest.MOV:
			e = a.exprOfOutside(a.S.UseOf(ref, in.Rs))
		case guest.ADDI:
			e = a.exprOfOutside(a.S.UseOf(ref, in.Rd)).Add(ConstExpr(in.Imm))
		case guest.SUBI:
			e = a.exprOfOutside(a.S.UseOf(ref, in.Rd)).Sub(ConstExpr(in.Imm))
		case guest.SHLI:
			if in.Imm >= 0 && in.Imm < 63 {
				e = a.exprOfOutside(a.S.UseOf(ref, in.Rd)).Scale(1 << uint(in.Imm))
			}
		case guest.LEA:
			e = a.memExprAt(ref, in.M, a.exprOfOutside)
		}
		if !e.Unknown {
			return e
		}
	}
	// Otherwise the value is runtime-readable if it is what a register
	// holds at loop entry.
	if !v.IsFlags && v.Reg < guest.NumGPR && a.EntryVals[v.Reg] == v {
		return RegExpr(v.Reg)
	}
	return UnknownExpr()
}

// valueExpr canonicalises an SSA value as a polynomial over loop-entry
// registers and the canonical iteration index.
func (a *Analysis) valueExpr(v *ssa.Value) Expr {
	if v == nil {
		return UnknownExpr()
	}
	m := a.slot(v)
	if m == nil {
		return a.exprOfOutside(v)
	}
	switch m.expr {
	case 0:
	case visiting:
		return UnknownExpr()
	default:
		return a.exprs[m.expr-1]
	}
	m.expr = visiting
	e := a.exprOf(v)
	a.exprs = append(a.exprs, e)
	m.expr = int32(len(a.exprs))
	return e
}

func (a *Analysis) exprOf(v *ssa.Value) Expr {
	// Header phi of this loop.
	if v.Kind == ssa.PhiDef && v.Block == a.Loop.Header {
		if ind := a.inductionOf(v); ind != nil {
			return ind.Init.Add(IterExpr(ind.Step))
		}
		if a.isReduction(v) {
			return UnknownExpr()
		}
		return a.phiArgsEqual(v)
	}
	// Defined outside the loop: invariant atom.
	if v.Kind == ssa.Param || (v.Block != nil && !a.Loop.Contains(v.Block)) {
		return a.exprOfOutside(v)
	}
	if v.Kind == ssa.PhiDef {
		// Join inside the loop (or an inner-loop header): the paper's
		// duplicated-path elimination — accept when every predecessor
		// computes the same canonical expression.
		return a.phiArgsEqual(v)
	}
	ref := ssa.InstRef{Block: v.Block, Idx: v.InstIdx}
	in := v.Inst()
	use := func(r guest.Reg) Expr { return a.valueExpr(a.S.UseOf(ref, r)) }
	switch in.Op {
	case guest.MOVI:
		return ConstExpr(in.Imm)
	case guest.MOV, guest.CMOVE, guest.CMOVNE:
		if in.Op != guest.MOV {
			// Conditional move: conservatively include both operands,
			// accepting only if they agree (per the paper's complex-
			// instruction simplification).
			d, s := use(in.Rd), use(in.Rs)
			if d.Equal(s) {
				return d
			}
			return UnknownExpr()
		}
		return use(in.Rs)
	case guest.ADD:
		return use(in.Rd).Add(use(in.Rs))
	case guest.SUB:
		return use(in.Rd).Sub(use(in.Rs))
	case guest.ADDI:
		return use(in.Rd).Add(ConstExpr(in.Imm))
	case guest.SUBI:
		return use(in.Rd).Sub(ConstExpr(in.Imm))
	case guest.INC:
		return use(in.Rd).Add(ConstExpr(1))
	case guest.DEC:
		return use(in.Rd).Sub(ConstExpr(1))
	case guest.NEG:
		return use(in.Rd).Scale(-1)
	case guest.IMUL:
		return use(in.Rd).Mul(use(in.Rs))
	case guest.IMULI:
		return use(in.Rd).Scale(in.Imm)
	case guest.SHLI:
		if in.Imm >= 0 && in.Imm < 63 {
			return use(in.Rd).Scale(1 << uint(in.Imm))
		}
	case guest.XOR:
		if in.Rd == in.Rs {
			return ConstExpr(0) // xor-self zeroing idiom
		}
	case guest.LEA:
		return a.memExprAt(ref, in.M, nil)
	}
	return UnknownExpr()
}

// phiArgsEqual returns the common expression of all phi arguments, or
// Unknown.
func (a *Analysis) phiArgsEqual(phi *ssa.Value) Expr {
	var common Expr
	first := true
	for _, arg := range phi.Args {
		if arg == nil {
			return UnknownExpr()
		}
		e := a.valueExpr(arg)
		if e.Unknown {
			return UnknownExpr()
		}
		if first {
			common, first = e, false
		} else if !common.Equal(e) {
			return UnknownExpr()
		}
	}
	if first {
		return UnknownExpr()
	}
	return common
}

// memExprAt canonicalises the address of a memory operand at ref.
// lookup overrides the expression source for operand registers (used
// when the operand sits outside the loop).
func (a *Analysis) memExprAt(ref ssa.InstRef, m guest.Mem, lookup func(*ssa.Value) Expr) Expr {
	if lookup == nil {
		lookup = a.valueExpr
	}
	e := ConstExpr(m.Disp)
	if m.Base != guest.RegNone {
		e = e.Add(lookup(a.S.UseOf(ref, m.Base)))
	}
	if m.Index != guest.RegNone {
		e = e.Add(lookup(a.S.UseOf(ref, m.Index)).Scale(int64(m.Scale)))
	}
	return e
}

// addrExpr canonicalises the memory operand of the instruction at ref.
func (a *Analysis) addrExpr(ref ssa.InstRef) Expr {
	return a.memExprAt(ref, ref.Inst().M, nil)
}

func (a *Analysis) collectAccesses() {
	for _, b := range a.Loop.Blocks() {
		for i, in := range b.Insts {
			if !in.Op.HasMem() {
				continue
			}
			ref := ssa.InstRef{Block: b, Idx: i}
			switch in.Op {
			case guest.LD, guest.VLD:
				a.Accesses = append(a.Accesses, Access{Ref: ref, Width: in.AccessWidth(), Addr: a.addrExpr(ref)})
			case guest.ST, guest.STI, guest.VST:
				a.Accesses = append(a.Accesses, Access{Ref: ref, Write: true, Width: in.AccessWidth(), Addr: a.addrExpr(ref)})
			}
		}
	}
}

// solveTrip analyses the loop exits and derives the symbolic trip count.
func (a *Analysis) solveTrip() {
	if len(a.Loop.Exits) == 0 {
		a.fail("no loop exits")
		return
	}
	// Prefer a single analysable exit; with several exits the trip is
	// only sound if the analysed one dominates the rest, so we demand a
	// unique exit for bound-based scheduling.
	for _, exit := range a.Loop.Exits {
		sol, ok := a.solveExit(exit)
		if ok {
			a.Trip = sol.trip
			a.MainIV = sol.iv
			a.ExitBlock = exit
			a.BoundIsImm = sol.boundIsImm
			a.BoundReg = sol.boundReg
			a.CmpAddr = sol.cmpAddr
			a.LeaveOp = sol.leaveOp
			break
		}
	}
	if a.MainIV == nil {
		a.fail("cannot identify loop iterator from any exit condition")
		return
	}
	if len(a.Loop.Exits) > 1 {
		// Trip reflects only the analysed exit; other exits may leave
		// earlier. Record the iterator but drop the bound.
		a.Trip = nil
	}
}

// exitSolution is the result of analysing one exit block.
type exitSolution struct {
	trip       *Trip
	iv         *Induction
	boundIsImm bool
	boundReg   guest.Reg
	cmpAddr    uint64
	leaveOp    guest.Op
}

// solveExit tries to derive the trip count from one exit block.
func (a *Analysis) solveExit(exit *cfg.Block) (exitSolution, bool) {
	var none exitSolution
	last := exit.Last()
	if !last.Op.IsCondBranch() {
		return none, false
	}
	// Find the flags-defining compare in this block.
	cmpIdx := -1
	for i := len(exit.Insts) - 1; i >= 0; i-- {
		if exit.Insts[i].Op.WritesFlags() {
			cmpIdx = i
			break
		}
	}
	if cmpIdx < 0 {
		return none, false
	}
	cmp := exit.Insts[cmpIdx]
	if cmp.Op != guest.CMP && cmp.Op != guest.CMPI {
		return none, false
	}
	ref := ssa.InstRef{Block: exit, Idx: cmpIdx}
	lhs := a.valueExpr(a.S.UseOf(ref, cmp.Rd))
	var rhs Expr
	boundIsImm := cmp.Op == guest.CMPI
	if boundIsImm {
		rhs = ConstExpr(cmp.Imm)
	} else {
		rhs = a.valueExpr(a.S.UseOf(ref, cmp.Rs))
	}

	// Determine the leave-loop condition.
	op := last.Op
	taken := a.Loop.Fn.BlockAt(uint64(last.Imm))
	leavesOnTaken := taken == nil || !a.Loop.Contains(taken)
	if !leavesOnTaken {
		op = guest.InvertCond(op)
	}

	// Identify the induction side.
	var ivExpr, bound Expr
	swapped := false
	switch {
	case lhs.Iter != 0 && rhs.IsInvariant():
		ivExpr, bound = lhs, rhs
	case rhs.Iter != 0 && lhs.IsInvariant():
		ivExpr, bound = rhs, lhs
		swapped = true
	default:
		return none, false
	}
	if swapped {
		// a OP b with sides swapped: flip the comparison.
		switch op {
		case guest.JL:
			op = guest.JG
		case guest.JLE:
			op = guest.JGE
		case guest.JG:
			op = guest.JL
		case guest.JGE:
			op = guest.JLE
		}
	}
	iv := a.inductionFor(ivExpr)
	if iv == nil {
		return none, false
	}
	s := ivExpr.Iter
	base := ivExpr.Invariant() // value at i = 0
	var trip *Trip
	switch {
	case op == guest.JGE && s > 0:
		trip = &Trip{Num: bound.Sub(base), Den: s, Round: RoundCeil}
	case op == guest.JG && s > 0:
		trip = &Trip{Num: bound.Sub(base).Add(ConstExpr(1)), Den: s, Round: RoundCeil}
	case op == guest.JLE && s < 0:
		trip = &Trip{Num: base.Sub(bound), Den: -s, Round: RoundCeil}
	case op == guest.JL && s < 0:
		trip = &Trip{Num: base.Sub(bound).Add(ConstExpr(1)), Den: -s, Round: RoundCeil}
	case op == guest.JE && s > 0:
		trip = &Trip{Num: bound.Sub(base), Den: s, Round: RoundExact}
	case op == guest.JE && s < 0:
		trip = &Trip{Num: base.Sub(bound), Den: -s, Round: RoundExact}
	default:
		return none, false
	}
	boundReg := guest.RegNone
	if !boundIsImm {
		boundReg = cmp.Rs
		if swapped {
			boundReg = cmp.Rd
		}
	}
	return exitSolution{
		trip:       trip,
		iv:         iv,
		boundIsImm: boundIsImm,
		boundReg:   boundReg,
		cmpAddr:    exit.InstAddr(cmpIdx),
		leaveOp:    op,
	}, true
}

// inductionFor matches an expression against the recognised induction
// variables: expr must be ind.Init + ind.Step·i (+ const offset is also
// fine — it is still controlled by the same iterator).
func (a *Analysis) inductionFor(e Expr) *Induction {
	for i := range a.Inductions {
		if a.Inductions[i].Step == e.Iter {
			return &a.Inductions[i]
		}
	}
	return nil
}

// findCarriedAndLiveOut classifies the remaining header phis and the
// registers needing final-value reconstruction.
func (a *Analysis) findCarriedAndLiveOut() {
	for _, phi := range a.S.PhisAt(a.Loop.Header) {
		if phi.IsFlags || a.inductionOf(phi) != nil || a.isReduction(phi) {
			continue
		}
		// Minimal SSA places phis for registers merely redefined in the
		// loop; only a phi whose value is read inside the body carries
		// a genuine dependence.
		if !a.phiUsedInLoop(phi) {
			continue
		}
		// A phi whose arguments all agree is a duplicated path, not a
		// dependence.
		if !a.phiArgsEqual(phi).Unknown {
			continue
		}
		a.CarriedRegs = append(a.CarriedRegs, phi.Reg)
	}
	var defined guest.RegSet
	for _, b := range a.Loop.Blocks() {
		for _, in := range b.Insts {
			defined |= in.DefRegs()
		}
	}
	// Each exit target's registers are emitted in register order, so
	// LiveOutRegs — and everything serialised from it, like the
	// LOOP_FINISH rules the artifact cache hashes — is identical across
	// runs.
	var seen guest.RegSet
	for _, t := range a.Loop.ExitTargets {
		live := liveInto(a.S, t) & defined &^ seen
		seen |= live
		for r := guest.Reg(0); r < guest.NumGPR; r++ {
			if live.Has(r) {
				a.LiveOutRegs = append(a.LiveOutRegs, r)
			}
		}
	}
}

// phiUsedInLoop reports whether the phi's value is read by an
// instruction inside the loop body. Argument-register "uses" by call
// instructions are ignored: the call only forwards them to the callee,
// and a callee reading an argument the caller never set is undefined
// behaviour under the calling convention, not a loop-carried value.
func (a *Analysis) phiUsedInLoop(phi *ssa.Value) bool {
	for _, b := range a.Loop.Blocks() {
		for i, in := range b.Insts {
			for _, u := range a.S.UsesAt(ssa.InstRef{Block: b, Idx: i}) {
				if u.Value != phi {
					continue
				}
				if in.Op.IsCall() && u.Reg >= guest.R1 && u.Reg <= guest.R5 {
					continue
				}
				return true
			}
		}
	}
	return false
}

// liveInto approximates the registers live at entry to block b: those
// read in b before being written, plus everything live out of b.
func liveInto(s *ssa.SSA, b *cfg.Block) guest.RegSet {
	var live, written guest.RegSet
	for _, in := range b.Insts {
		live |= in.UseRegs() &^ written
		written |= in.DefRegs()
	}
	return live | s.LiveOutSet(b)&^written
}

// String summarises the analysis for diagnostics.
func (a *Analysis) String() string {
	status := "regular"
	if a.Irregular {
		status = "irregular: " + a.Reason
	}
	trip := "unknown"
	if a.Trip != nil {
		trip = fmt.Sprintf("ceil((%s)/%d)", a.Trip.Num, a.Trip.Den)
	}
	return fmt.Sprintf("loop@%#x %s, %d ivs, %d reds, %d accesses, trip=%s",
		a.Loop.Header.Addr, status, len(a.Inductions), len(a.Reductions), len(a.Accesses), trip)
}

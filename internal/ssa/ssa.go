// Package ssa builds static single assignment form over the recovered
// CFG. Registers and the flags register are abstracted into versioned
// values, exactly as the paper's analyser "abstracts all register, stack
// and absolute memory locations into versioned variables in SSA form".
// Phi nodes are placed with dominance frontiers and renamed over the
// dominator tree. The symbolic-expression layer (internal/sym) consumes
// the def-use chains produced here.
package ssa

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"janus/internal/cfg"
	"janus/internal/guest"
)

// loc indexes an SSA-tracked storage location: GPRs 0..16 (16 = TLS)
// then flags.
type loc int

const (
	locFlags loc = guest.NumGPR + 1
	numLocs      = int(locFlags) + 1
)

// defLocs returns the locations instruction in writes, one bit per loc.
func defLocs(in guest.Inst) uint32 {
	m := uint32(in.DefRegs())
	if in.Op.WritesFlags() {
		m |= 1 << locFlags
	}
	return m
}

// ValueKind discriminates how a Value is defined.
type ValueKind uint8

const (
	// Param is a location's value on function entry.
	Param ValueKind = iota
	// InstDef is a definition by an ordinary instruction.
	InstDef
	// PhiDef is a phi node at a join point.
	PhiDef
)

// Value is one SSA value.
type Value struct {
	// ID numbers the function's values from 1 to SSA.NumValues.
	ID   int
	Kind ValueKind
	// Reg is the architectural location this value versions
	// (guest.RegNone+flags handled via IsFlags).
	Reg     guest.Reg
	IsFlags bool
	// Block and InstIdx give the defining instruction for InstDef, or
	// the owning block for PhiDef.
	Block   *cfg.Block
	InstIdx int
	// Args are phi arguments, parallel to Block.Preds (PhiDef only).
	Args []*Value
}

// Inst returns the defining instruction of an InstDef value, and the
// zero instruction for any other kind.
func (v *Value) Inst() guest.Inst {
	if v.Kind != InstDef {
		return guest.Inst{}
	}
	return v.Block.Insts[v.InstIdx]
}

func (v *Value) loc() loc {
	if v.IsFlags {
		return locFlags
	}
	return loc(v.Reg)
}

func (v *Value) String() string {
	where := "param"
	switch v.Kind {
	case InstDef:
		where = fmt.Sprintf("%#x", v.Block.InstAddr(v.InstIdx))
	case PhiDef:
		where = fmt.Sprintf("phi@%#x", v.Block.Addr)
	}
	if v.IsFlags {
		return fmt.Sprintf("flags_%d(%s)", v.ID, where)
	}
	return fmt.Sprintf("%s_%d(%s)", v.Reg, v.ID, where)
}

// InstRef names an instruction by block and index.
type InstRef struct {
	Block *cfg.Block
	Idx   int
}

// Addr returns the instruction's code address.
func (r InstRef) Addr() uint64 { return r.Block.InstAddr(r.Idx) }

// Inst returns the referenced instruction.
func (r InstRef) Inst() guest.Inst { return r.Block.Insts[r.Idx] }

// Use is one register an instruction reads and the value reaching it.
type Use struct {
	Reg   guest.Reg
	Value *Value
}

// SSA is the result of construction for one function. Everything per
// block is a slice indexed by cfg.Block.Index, and everything per
// instruction a run in a flat array: instruction i of block b is flat
// instruction base[b.Index]+i.
type SSA struct {
	Fn *cfg.Func
	// Params are the entry values of the GPRs and RegTLS.
	Params [guest.RegTLS + 1]*Value

	// vals holds every value; ID i is vals[i-1].
	vals []Value
	base []int32
	// Flat instruction k reads uses[useOff[k]:useOff[k+1]], in register
	// order, and defines defs[defOff[k]:defOff[k+1]].
	useOff []int32
	uses   []Use
	defOff []int32
	defs   []*Value
	// Block i's phis are phis[phiOff[i]:phiOff[i+1]], in location order.
	phiOff []int32
	phis   []*Value
	// entry[j] is every GPR's value at entry to the header of
	// Fn.Loops[j], after its phis: no other block's entry state is kept.
	entry   [][guest.NumGPR]*Value
	liveOut []guest.RegSet
}

// IDRange is the value IDs Lo ≤ ID < Hi.
type IDRange struct{ Lo, Hi int }

// Len is the number of IDs in the range.
func (r IDRange) Len() int { return r.Hi - r.Lo }

// Has reports whether v's ID lies in the range.
func (r IDRange) Has(v *Value) bool { return r.Lo <= v.ID && v.ID < r.Hi }

// Build constructs SSA form for fn.
func Build(fn *cfg.Func) *SSA {
	nb := len(fn.Blocks)
	s := &SSA{
		Fn:      fn,
		base:    make([]int32, nb+1),
		phiOff:  make([]int32, nb+1),
		entry:   make([][guest.NumGPR]*Value, len(fn.Loops)),
		liveOut: liveness(fn),
	}

	// 1. Number the instructions, size their use and def runs, and
	// collect the locations each block defines.
	for i, b := range fn.Blocks {
		s.base[i+1] = s.base[i] + int32(len(b.Insts))
	}
	n := s.base[nb]
	s.useOff = make([]int32, n+1)
	s.defOff = make([]int32, n+1)
	defMask := make([]uint32, nb)
	k := 0
	for i, b := range fn.Blocks {
		for _, in := range b.Insts {
			d := defLocs(in)
			defMask[i] |= d
			s.useOff[k+1] = s.useOff[k] + int32(in.UseRegs().Len())
			s.defOff[k+1] = s.defOff[k] + int32(bits.OnesCount32(d))
			k++
		}
	}
	s.uses = make([]Use, s.useOff[n])
	s.defs = make([]*Value, s.defOff[n])

	// 2. Phi placement via dominance frontiers (minimal SSA).
	df := fn.DominanceFrontier()
	phiMask := make([]uint32, nb)
	inWork := make([]int, nb) // l+1 once block i was queued for l
	var work []*cfg.Block
	for l := loc(0); int(l) < numLocs; l++ {
		for i, b := range fn.Blocks {
			if defMask[i]&(1<<l) != 0 {
				work = append(work, b)
				inWork[i] = int(l) + 1
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range df[b.Index] {
				if phiMask[f.Index]&(1<<l) != 0 {
					continue
				}
				phiMask[f.Index] |= 1 << l
				if inWork[f.Index] != int(l)+1 {
					inWork[f.Index] = int(l) + 1
					work = append(work, f)
				}
			}
		}
	}

	// Every value comes from one slab sized exactly: the phis, block by
	// block in location order, the entry values, then one per
	// instruction def. Blocks take their phis and defs in loop order, so
	// each loop's values are two runs of consecutive IDs (LoopValues).
	nPhis, nArgs := 0, 0
	for i, b := range fn.Blocks {
		c := bits.OnesCount32(phiMask[i])
		s.phiOff[i+1] = s.phiOff[i] + int32(c)
		nPhis += c
		nArgs += c * len(b.Preds)
	}
	s.vals = make([]Value, nPhis+numLocs+int(s.defOff[n]))
	s.phis = make([]*Value, nPhis)
	args := make([]*Value, nArgs)
	next := 0
	order := loopOrder(fn)
	for _, i := range order {
		b, k := fn.Blocks[i], s.phiOff[i]
		for l := loc(0); int(l) < numLocs; l++ {
			if phiMask[i]&(1<<l) != 0 {
				phi := s.newValue(next, PhiDef, l)
				next++
				phi.Block = b
				phi.Args, args = args[:len(b.Preds):len(b.Preds)], args[len(b.Preds):]
				s.phis[k] = phi
				k++
			}
		}
	}

	// 3. Renaming over the dominator tree, block i's defs from
	// defAt[i] on.
	var cur [numLocs]*Value
	for l := loc(0); int(l) < numLocs; l++ {
		cur[l] = s.newValue(next, Param, l)
		next++
	}
	copy(s.Params[:], cur[:])
	defAt := make([]int32, nb)
	for _, i := range order {
		defAt[i] = int32(next)
		next += int(s.defOff[s.base[i+1]] - s.defOff[s.base[i]])
	}
	if fn.Entry != nil {
		s.rename(fn.Entry, cur, domChildren(fn), defAt)
	}
	return s
}

// loopOrder lists fn's block indices in Blocks order, except that the
// first block met of a loop brings the rest of the loop's blocks
// straight after it, nested loops alike: every loop's blocks are
// consecutive in it.
func loopOrder(fn *cfg.Func) []int32 {
	nb := len(fn.Blocks)
	inner := make([]*cfg.Loop, nb) // the innermost loop holding block i
	for _, l := range fn.Loops {
		for _, b := range l.Blocks() {
			if in := inner[b.Index]; in == nil || l.Depth > in.Depth {
				inner[b.Index] = l
			}
		}
	}
	order := make([]int32, 0, nb)
	placed := make([]bool, nb)
	var place func(scope *cfg.Loop, blocks []*cfg.Block)
	place = func(scope *cfg.Loop, blocks []*cfg.Block) {
		for _, b := range blocks {
			if placed[b.Index] {
				continue
			}
			// The loop directly inside scope that holds b, if any.
			l := inner[b.Index]
			for l != nil && l != scope && l.Parent != scope {
				l = l.Parent
			}
			if l == nil || l == scope {
				placed[b.Index] = true
				order = append(order, int32(b.Index))
			} else {
				place(l, l.Blocks())
			}
		}
	}
	place(nil, fn.Blocks)
	return order
}

// domTree is the dominator tree: block i's children are
// kids[off[i]:off[i+1]], in Blocks order.
type domTree struct {
	off  []int32
	kids []*cfg.Block
}

func domChildren(fn *cfg.Func) domTree {
	nb := len(fn.Blocks)
	t := domTree{off: make([]int32, nb+1)}
	for _, b := range fn.Blocks {
		if id := fn.Idom(b); id != nil {
			t.off[id.Index+1]++
		}
	}
	for i := 1; i <= nb; i++ {
		t.off[i] += t.off[i-1]
	}
	t.kids = make([]*cfg.Block, t.off[nb])
	next := slices.Clone(t.off[:nb])
	for _, b := range fn.Blocks {
		if id := fn.Idom(b); id != nil {
			t.kids[next[id.Index]] = b
			next[id.Index]++
		}
	}
	return t
}

// rename renames block b with cur the values reaching its entry, then
// its dominator-tree children. cur is a copy, so siblings see what
// reaches their common dominator's end.
func (s *SSA) rename(b *cfg.Block, cur [numLocs]*Value, t domTree, defAt []int32) {
	for _, phi := range s.PhisAt(b) {
		cur[phi.loc()] = phi
	}
	if j := s.headerSlot(b); j >= 0 {
		copy(s.entry[j][:], cur[:guest.NumGPR])
	}
	k := s.base[b.Index]
	next := int(defAt[b.Index])
	for i, in := range b.Insts {
		u := s.useOff[k]
		use := in.UseRegs()
		for r := guest.Reg(0); r <= guest.RegTLS; r++ {
			if use.Has(r) {
				s.uses[u] = Use{Reg: r, Value: cur[r]}
				u++
			}
		}
		d := s.defOff[k]
		def := defLocs(in)
		for l := loc(0); int(l) < numLocs; l++ {
			if def&(1<<l) != 0 {
				v := s.newValue(next, InstDef, l)
				next++
				v.Block = b
				v.InstIdx = i
				cur[l] = v
				s.defs[d] = v
				d++
			}
		}
		k++
	}
	for _, succ := range b.Succs {
		pi := predIndex(succ, b)
		for _, phi := range s.PhisAt(succ) {
			phi.Args[pi] = cur[phi.loc()]
		}
	}
	for _, c := range t.kids[t.off[b.Index]:t.off[b.Index+1]] {
		s.rename(c, cur, t, defAt)
	}
}

// newValue makes the value in slab slot i, which is ID i+1. The slab
// has the exact length Build computed, and every slot is made once.
func (s *SSA) newValue(i int, k ValueKind, l loc) *Value {
	v := &s.vals[i]
	*v = Value{ID: i + 1, Kind: k, Reg: guest.Reg(l)}
	if l == locFlags {
		v.IsFlags = true
		v.Reg = guest.RegNone
	}
	return v
}

func predIndex(b, pred *cfg.Block) int {
	for i, p := range b.Preds {
		if p == pred {
			return i
		}
	}
	return -1
}

// NumValues returns the number of values; their IDs are 1..NumValues.
func (s *SSA) NumValues() int { return len(s.vals) }

// owns reports whether b is one of the function's blocks.
func (s *SSA) owns(b *cfg.Block) bool { return b != nil && b.Fn == s.Fn && b.Index < len(s.Fn.Blocks) }

// headerSlot returns j when b heads Fn.Loops[j] (sorted by header
// address, one loop per header), and -1 for any other block.
func (s *SSA) headerSlot(b *cfg.Block) int {
	if !s.owns(b) {
		return -1
	}
	loops := s.Fn.Loops
	j, ok := slices.BinarySearchFunc(loops, b.Addr, func(l *cfg.Loop, addr uint64) int { return cmp.Compare(l.Header.Addr, addr) })
	if !ok || loops[j].Header != b {
		return -1
	}
	return j
}

// LoopValues returns the IDs of the values l's blocks define: its
// blocks' phis, and the defs of their instructions. Build numbers each
// loop's values consecutively, so the ranges hold them and no others.
func (s *SSA) LoopValues(l *cfg.Loop) (phis, defs IDRange) {
	phis.Lo, defs.Lo = len(s.vals)+1, len(s.vals)+1
	for _, b := range l.Blocks() {
		if !s.owns(b) {
			continue
		}
		i := b.Index
		if p := s.phis[s.phiOff[i]:s.phiOff[i+1]]; len(p) > 0 {
			phis.Lo, phis.Hi = min(phis.Lo, p[0].ID), max(phis.Hi, p[len(p)-1].ID+1)
		}
		if d := s.defs[s.defOff[s.base[i]]:s.defOff[s.base[i+1]]]; len(d) > 0 {
			defs.Lo, defs.Hi = min(defs.Lo, d[0].ID), max(defs.Hi, d[len(d)-1].ID+1)
		}
	}
	phis.Lo, defs.Lo = min(phis.Lo, phis.Hi), min(defs.Lo, defs.Hi)
	return phis, defs
}

// inst returns the flat index of ref, or -1.
func (s *SSA) inst(ref InstRef) int32 {
	if !s.owns(ref.Block) || ref.Idx < 0 || ref.Idx >= len(ref.Block.Insts) {
		return -1
	}
	return s.base[ref.Block.Index] + int32(ref.Idx)
}

// UsesAt returns the registers instruction ref reads, in register
// order, each with the value reaching it. The slice is shared.
func (s *SSA) UsesAt(ref InstRef) []Use {
	k := s.inst(ref)
	if k < 0 {
		return nil
	}
	return s.uses[s.useOff[k]:s.useOff[k+1]]
}

// DefsAt returns the values instruction ref defines. The slice is
// shared.
func (s *SSA) DefsAt(ref InstRef) []*Value {
	k := s.inst(ref)
	if k < 0 {
		return nil
	}
	return s.defs[s.defOff[k]:s.defOff[k+1]]
}

// PhisAt returns the phi values at block b, in location order. The
// slice is shared.
func (s *SSA) PhisAt(b *cfg.Block) []*Value {
	if !s.owns(b) {
		return nil
	}
	return s.phis[s.phiOff[b.Index]:s.phiOff[b.Index+1]]
}

// EntryOf returns the value of every GPR at entry to loop header b,
// after the block's phis. Build keeps entry state for loop headers
// alone: for any other block, EntryOf returns all nil.
func (s *SSA) EntryOf(b *cfg.Block) [guest.NumGPR]*Value {
	j := s.headerSlot(b)
	if j < 0 {
		return [guest.NumGPR]*Value{}
	}
	return s.entry[j]
}

// UseOf returns the SSA value reaching register r at instruction ref.
func (s *SSA) UseOf(ref InstRef, r guest.Reg) *Value {
	for _, u := range s.UsesAt(ref) {
		if u.Reg == r {
			return u.Value
		}
	}
	return nil
}

// DefOfReg returns the value instruction ref defines for register r,
// or nil.
func (s *SSA) DefOfReg(ref InstRef, r guest.Reg) *Value {
	for _, v := range s.DefsAt(ref) {
		if !v.IsFlags && v.Reg == r {
			return v
		}
	}
	return nil
}

// PhiFor returns the phi value for register r at block b, or nil.
func (s *SSA) PhiFor(b *cfg.Block, r guest.Reg) *Value {
	for _, phi := range s.PhisAt(b) {
		if !phi.IsFlags && phi.Reg == r {
			return phi
		}
	}
	return nil
}

// liveness computes per-block live-out register sets with the standard
// backwards iterative dataflow, over bitsets indexed by block.
func liveness(fn *cfg.Func) []guest.RegSet {
	nb := len(fn.Blocks)
	liveOut := make([]guest.RegSet, nb)
	sets := make([]guest.RegSet, 3*nb)
	gen, kill, liveIn := sets[:nb], sets[nb:2*nb], sets[2*nb:]
	for i, b := range fn.Blocks {
		var g, k guest.RegSet
		for _, in := range b.Insts {
			g |= in.UseRegs() &^ k
			k |= in.DefRegs()
		}
		gen[i], kill[i] = g, k
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			var out guest.RegSet
			for _, succ := range fn.Blocks[i].Succs {
				out |= liveIn[succ.Index]
			}
			in := gen[i] | out&^kill[i]
			if out != liveOut[i] || in != liveIn[i] {
				liveOut[i], liveIn[i] = out, in
				changed = true
			}
		}
	}
	return liveOut
}

// LiveOutSet returns the registers live out of block b.
func (s *SSA) LiveOutSet(b *cfg.Block) guest.RegSet {
	if !s.owns(b) {
		return 0
	}
	return s.liveOut[b.Index]
}

// LiveOutOf reports whether register r is live out of block b.
func (s *SSA) LiveOutOf(b *cfg.Block, r guest.Reg) bool {
	return s.LiveOutSet(b).Has(r)
}

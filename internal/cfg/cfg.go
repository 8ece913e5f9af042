// Package cfg recovers control-flow structure from a raw executable:
// function discovery (from symbols when present, or from the entry point
// and call targets when stripped), basic blocks, control-flow graphs,
// dominator trees, natural loops and the loop nesting forest, and a call
// graph. It is the front half of the Janus static binary analyser.
package cfg

import (
	"fmt"
	"slices"

	"janus/internal/guest"
	"janus/internal/obj"
)

// Block is a basic block: a maximal straight-line instruction sequence.
type Block struct {
	// Addr is the address of the first instruction.
	Addr uint64
	// Insts are the decoded instructions; instruction i is at
	// Addr + i*guest.InstSize.
	Insts []guest.Inst
	// Succs and Preds are CFG edges within the enclosing function.
	Succs []*Block
	Preds []*Block
	// Index is the block's position in Func.Blocks.
	Index int
	// Fn is the enclosing function.
	Fn *Func
}

// InstAddr returns the address of instruction i in the block.
func (b *Block) InstAddr(i int) uint64 { return b.Addr + uint64(i*guest.InstSize) }

// End returns the first address past the block.
func (b *Block) End() uint64 { return b.Addr + uint64(len(b.Insts)*guest.InstSize) }

// Last returns the final instruction of the block.
func (b *Block) Last() guest.Inst { return b.Insts[len(b.Insts)-1] }

// Func is a recovered function.
type Func struct {
	Name  string
	Entry *Block
	// Blocks in reverse postorder from the entry.
	Blocks []*Block
	// byAddr holds the blocks themselves, in address order (BlockAt).
	byAddr []Block
	// Calls lists direct call targets (addresses, may include PLT stubs).
	Calls []uint64
	// HasIndirect is set when the function contains an indirect jump or
	// call whose targets cannot be determined statically.
	HasIndirect bool
	// HasSyscall is set when the function executes syscalls directly.
	HasSyscall bool
	// idom[i] is the immediate dominator of Blocks[i] (nil for entry).
	idom []*Block
	// Loops in this function, outermost first within each nest.
	Loops []*Loop
}

// Program is the CFG-level view of an executable.
type Program struct {
	Exe        *obj.Executable
	Funcs      []*Func
	FuncByAddr map[uint64]*Func
	// PLTNames maps a PLT stub address to the imported symbol name.
	PLTNames map[uint64]string
}

// Build disassembles the executable and recovers functions, blocks,
// dominators, loops and the call graph. It works for stripped binaries:
// function starts are then discovered from the entry point and direct
// call targets, the same information the paper's analyser relies on.
func Build(exe *obj.Executable) (*Program, error) {
	insts, err := exe.Decode()
	if err != nil {
		return nil, fmt.Errorf("cfg: %w", err)
	}
	p := &Program{
		Exe:        exe,
		FuncByAddr: make(map[uint64]*Func),
		PLTNames:   make(map[uint64]string),
	}
	for _, im := range exe.Imports {
		p.PLTNames[im.PLT] = im.Name
	}
	c := newCode(exe.CodeBase, insts)

	// Seed function starts.
	starts := map[uint64]string{exe.Entry: "entry"}
	if !exe.Stripped {
		for _, s := range exe.FuncSymbols() {
			if _, isPLT := p.PLTNames[s.Addr]; !isPLT {
				starts[s.Addr] = s.Name
			}
		}
	}
	// Iteratively add direct call targets until fixpoint.
	work := make([]uint64, 0, len(starts))
	for a := range starts {
		work = append(work, a)
	}
	seenFuncs := map[uint64]bool{}
	for len(work) > 0 {
		fa := work[len(work)-1]
		work = work[:len(work)-1]
		if seenFuncs[fa] {
			continue
		}
		seenFuncs[fa] = true
		if _, isPLT := p.PLTNames[fa]; isPLT {
			continue
		}
		for _, target := range c.scanCalls(fa, p.PLTNames) {
			if _, ok := starts[target]; !ok {
				starts[target] = fmt.Sprintf("fn_%x", target)
			}
			work = append(work, target)
		}
	}

	addrs := make([]uint64, 0, len(starts))
	for a := range starts {
		if _, isPLT := p.PLTNames[a]; !isPLT {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	for _, fa := range addrs {
		name := starts[fa]
		if sym, ok := symbolAt(exe, fa); ok {
			name = sym
		}
		fn, err := c.buildFunc(name, fa)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, fn)
		p.FuncByAddr[fa] = fn
	}
	for _, fn := range p.Funcs {
		computeDominators(fn)
		findLoops(fn)
	}
	return p, nil
}

func symbolAt(exe *obj.Executable, addr uint64) (string, bool) {
	for _, s := range exe.Symbols {
		if s.Kind == obj.SymFunc && s.Addr == addr {
			return s.Name, true
		}
	}
	return "", false
}

// Per-instruction flags of the code walks (code.flags).
const (
	flagReach  uint8 = 1 << iota // reached by buildFunc
	flagLeader                   // starts a block in buildFunc
	flagSeen                     // visited by scanCalls
)

// code is the decoded code section with one flag byte per instruction,
// the scratch every walk over one function's instructions marks and
// clears again, so recovering a program's functions allocates no
// per-instruction state.
type code struct {
	base  uint64
	insts []guest.Inst
	flags []uint8
	// lo and hi bound the flagged indices (lo > hi when none are).
	lo, hi int
	work   []int
}

func newCode(base uint64, insts []guest.Inst) *code {
	return &code{base: base, insts: insts, flags: make([]uint8, len(insts)), lo: len(insts), hi: -1}
}

// index returns the instruction index of addr, or false when addr is
// outside the section or not instruction-aligned.
func (c *code) index(addr uint64) (int, bool) {
	off := addr - c.base
	if addr < c.base || off%guest.InstSize != 0 || off/guest.InstSize >= uint64(len(c.insts)) {
		return 0, false
	}
	return int(off / guest.InstSize), true
}

func (c *code) addr(i int) uint64 { return c.base + uint64(i)*guest.InstSize }

// set sets flag f on instruction i.
func (c *code) set(i int, f uint8) {
	c.flags[i] |= f
	c.lo, c.hi = min(c.lo, i), max(c.hi, i)
}

// mark sets flag f on the instruction at addr, if there is one.
func (c *code) mark(addr uint64, f uint8) {
	if i, ok := c.index(addr); ok {
		c.set(i, f)
	}
}

// clear drops every flag the last walk set.
func (c *code) clear() {
	if c.lo <= c.hi {
		clear(c.flags[c.lo : c.hi+1])
	}
	c.lo, c.hi = len(c.insts), -1
}

// push queues the instruction at addr for a walk, if there is one.
func (c *code) push(addr uint64) {
	if i, ok := c.index(addr); ok {
		c.work = append(c.work, i)
	}
}

// scanCalls walks reachable instructions from fa and collects direct
// call targets that are not PLT stubs.
func (c *code) scanCalls(fa uint64, plt map[uint64]string) []uint64 {
	defer c.clear()
	var targets []uint64
	c.work = c.work[:0]
	c.push(fa)
	for len(c.work) > 0 {
		i := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if c.flags[i]&flagSeen != 0 {
			continue
		}
		c.set(i, flagSeen)
		in, next := c.insts[i], c.addr(i+1)
		switch {
		case in.Op == guest.CALL:
			if _, isPLT := plt[uint64(in.Imm)]; !isPLT {
				targets = append(targets, uint64(in.Imm))
			}
			c.push(next)
		case in.Op == guest.JMP:
			c.push(uint64(in.Imm))
		case in.Op.IsCondBranch():
			c.push(uint64(in.Imm))
			c.push(next)
		case in.Op == guest.RET, in.Op == guest.HALT, in.Op == guest.JMPI:
			// stop
		default:
			c.push(next)
		}
	}
	return targets
}

// buildFunc discovers the blocks reachable from fa and links the CFG.
func (c *code) buildFunc(name string, fa uint64) (*Func, error) {
	defer c.clear()
	fn := &Func{Name: name}

	// Pass 1: find reachable instructions and block leaders. A path
	// that falls through into undecodable bytes (section end, data
	// padding) ends there, as a disassembler would.
	var callTargets []uint64
	c.mark(fa, flagLeader)
	c.work = c.work[:0]
	c.push(fa)
	for len(c.work) > 0 {
		i := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		if c.flags[i]&flagReach != 0 {
			continue
		}
		c.set(i, flagReach)
		in, next := c.insts[i], c.addr(i+1)
		switch {
		case in.Op == guest.JMP:
			c.mark(uint64(in.Imm), flagLeader)
			c.push(uint64(in.Imm))
		case in.Op.IsCondBranch():
			c.mark(uint64(in.Imm), flagLeader)
			c.mark(next, flagLeader)
			c.push(uint64(in.Imm))
			c.push(next)
		case in.Op.IsCall():
			if in.Op == guest.CALL {
				callTargets = append(callTargets, uint64(in.Imm))
			} else {
				fn.HasIndirect = true
			}
			// A call ends the block; execution resumes at next.
			c.mark(next, flagLeader)
			c.push(next)
		case in.Op == guest.RET || in.Op == guest.HALT:
			// stop
		case in.Op == guest.JMPI:
			fn.HasIndirect = true
			// Unknown targets: stop exploration on this path.
		default:
			if in.Op == guest.SYSCALL {
				fn.HasSyscall = true
			}
			c.push(next)
		}
	}
	fn.Calls = callTargets

	// Pass 2: materialise blocks between reachable leaders, in address
	// order, as slices of the shared decoded code.
	const start = flagReach | flagLeader
	n := 0
	for i := c.lo; i <= c.hi; i++ {
		if c.flags[i]&start == start {
			n++
		}
	}
	fn.byAddr = make([]Block, 0, n)
	for i := c.lo; i <= c.hi; i++ {
		if c.flags[i]&start != start {
			continue
		}
		j := i
		for j < len(c.insts) && c.flags[j]&flagReach != 0 && (j == i || c.flags[j]&flagLeader == 0) {
			j++
			if c.insts[j-1].Op.IsBlockEnd() {
				break
			}
		}
		fn.byAddr = append(fn.byAddr, Block{Addr: c.addr(i), Insts: c.insts[i:j:j], Fn: fn})
	}

	// Pass 3: successor edges, linked in address order so that every
	// block's Preds — and the phi arguments and dominance frontiers that
	// follow them — come out the same on every build. Succs and Preds
	// are carved from one array.
	nSuccs := make([]int, len(fn.byAddr))
	nPreds := make([]int, len(fn.byAddr))
	total := 0
	for i := range fn.byAddr {
		targets, k := succTargets(&fn.byAddr[i])
		for _, t := range targets[:k] {
			if ti := fn.blockIndex(t); ti >= 0 {
				nSuccs[i]++
				nPreds[ti]++
				total++
			}
		}
	}
	edges := make([]*Block, 2*total)
	for i := range fn.byAddr {
		b := &fn.byAddr[i]
		b.Succs, edges = edges[:0:nSuccs[i]], edges[nSuccs[i]:]
		b.Preds, edges = edges[:0:nPreds[i]], edges[nPreds[i]:]
	}
	for i := range fn.byAddr {
		b := &fn.byAddr[i]
		targets, k := succTargets(b)
		for _, t := range targets[:k] {
			if ti := fn.blockIndex(t); ti >= 0 {
				tb := &fn.byAddr[ti]
				b.Succs = append(b.Succs, tb)
				tb.Preds = append(tb.Preds, b)
			}
		}
	}

	entry := fn.BlockAt(fa)
	if entry == nil {
		return nil, fmt.Errorf("cfg: %s: entry block missing", name)
	}
	fn.Entry = entry
	fn.Blocks = reversePostorder(fn)
	for i, b := range fn.Blocks {
		b.Index = i
	}
	return fn, nil
}

// succTargets returns the addresses b's last instruction may continue
// at within the function, fall-through first.
func succTargets(b *Block) (t [2]uint64, n int) {
	last := b.Last()
	switch {
	case last.Op == guest.JMP:
		return [2]uint64{uint64(last.Imm)}, 1
	case last.Op.IsCondBranch():
		return [2]uint64{b.End(), uint64(last.Imm)}, 2
	case last.Op == guest.RET, last.Op == guest.HALT, last.Op == guest.JMPI:
		// no intra-procedural successors
		return t, 0
	default:
		// Calls return to the next block; anything else falls through.
		return [2]uint64{b.End()}, 1
	}
}

// blockIndex returns the position in fn.byAddr of the block starting at
// addr, or -1.
func (fn *Func) blockIndex(addr uint64) int {
	lo, hi := 0, len(fn.byAddr)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fn.byAddr[m].Addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(fn.byAddr) && fn.byAddr[lo].Addr == addr {
		return lo
	}
	return -1
}

// BlockAt returns the block starting at addr, or nil.
func (fn *Func) BlockAt(addr uint64) *Block {
	if i := fn.blockIndex(addr); i >= 0 {
		return &fn.byAddr[i]
	}
	return nil
}

// reversePostorder orders fn's blocks from the entry along Succs. It
// numbers each block by its position in fn.byAddr while it walks.
func reversePostorder(fn *Func) []*Block {
	order := make([]*Block, 0, len(fn.byAddr))
	seen := make([]bool, len(fn.byAddr))
	for i := range fn.byAddr {
		fn.byAddr[i].Index = i
	}
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		order = append(order, b)
	}
	dfs(fn.Entry)
	slices.Reverse(order)
	return order
}

// computeDominators fills fn.idom using the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func computeDominators(fn *Func) {
	n := len(fn.Blocks)
	fn.idom = make([]*Block, n)
	if n == 0 {
		return
	}
	fn.idom[0] = fn.Entry
	changed := true
	for changed {
		changed = false
		for _, b := range fn.Blocks[1:] {
			var newIdom *Block
			for _, p := range b.Preds {
				if fn.idom[p.Index] == nil && p != fn.Entry {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(fn, p, newIdom)
				}
			}
			if newIdom != nil && fn.idom[b.Index] != newIdom {
				fn.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
}

func intersect(fn *Func, a, b *Block) *Block {
	for a != b {
		for a.Index > b.Index {
			a = fn.idom[a.Index]
		}
		for b.Index > a.Index {
			b = fn.idom[b.Index]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (nil for the entry block).
func (fn *Func) Idom(b *Block) *Block {
	if b == fn.Entry {
		return nil
	}
	return fn.idom[b.Index]
}

// Dominates reports whether a dominates b (reflexive).
func (fn *Func) Dominates(a, b *Block) bool {
	for {
		if a == b {
			return true
		}
		if b == fn.Entry || b == nil {
			return false
		}
		b = fn.idom[b.Index]
		if b == nil {
			return false
		}
	}
}

// DominanceFrontier computes the dominance frontier of every block,
// needed for SSA phi placement: df[b.Index] is b's frontier.
func (fn *Func) DominanceFrontier() [][]*Block {
	df := make([][]*Block, len(fn.Blocks))
	for _, b := range fn.Blocks {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			runner := p
			for runner != nil && runner != fn.idom[b.Index] {
				if !containsBlock(df[runner.Index], b) {
					df[runner.Index] = append(df[runner.Index], b)
				}
				if runner == fn.Entry {
					break
				}
				runner = fn.idom[runner.Index]
			}
		}
	}
	return df
}

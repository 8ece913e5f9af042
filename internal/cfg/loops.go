package cfg

import (
	"cmp"
	"slices"

	"janus/internal/guest"
)

// Loop is a natural loop discovered from a back edge whose target
// dominates its source.
type Loop struct {
	// ID is unique within the program once assigned by the analyser.
	ID int
	Fn *Func
	// Header is the single entry block of the loop.
	Header *Block
	// body[i] is set when Fn.Blocks[i] belongs to the loop; blocks is
	// the same set in Blocks order.
	body   []bool
	blocks []*Block
	// Latches are the blocks with a back edge to the header.
	Latches []*Block
	// Exits are blocks inside the loop with a successor outside.
	Exits []*Block
	// ExitTargets are the first blocks outside the loop reached from exits.
	ExitTargets []*Block
	// Parent is the innermost enclosing loop (nil for top level).
	Parent *Loop
	// Children are the directly nested loops.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int
	// CallTargets are direct call target addresses made inside the loop.
	CallTargets []uint64
	// HasIndirect is set if the loop body contains indirect control flow.
	HasIndirect bool
}

// Blocks returns the loop body sorted by address, header first. The
// slice is shared: callers must not modify it.
func (l *Loop) Blocks() []*Block { return l.blocks }

// Contains reports whether block b belongs to the loop body.
func (l *Loop) Contains(b *Block) bool {
	return b != nil && b.Fn == l.Fn && b.Index < len(l.body) && l.body[b.Index]
}

// Outermost returns the root of this loop's nest.
func (l *Loop) Outermost() *Loop {
	for l.Parent != nil {
		l = l.Parent
	}
	return l
}

// findLoops discovers natural loops in fn and builds the nesting forest.
// Loops sharing a header are merged, as is conventional.
func findLoops(fn *Func) {
	byHeader := make([]*Loop, len(fn.Blocks))
	var loops []*Loop
	for _, b := range fn.Blocks {
		for _, s := range b.Succs {
			if fn.Dominates(s, b) {
				// Back edge b -> s.
				l := byHeader[s.Index]
				if l == nil {
					l = &Loop{Fn: fn, Header: s, body: make([]bool, len(fn.Blocks))}
					l.body[s.Index] = true
					byHeader[s.Index] = l
					loops = append(loops, l)
				}
				l.Latches = append(l.Latches, b)
				collectBody(l, b)
			}
		}
	}
	slices.SortFunc(loops, func(a, b *Loop) int { return cmp.Compare(a.Header.Addr, b.Header.Addr) })

	// Body lists, exits, calls and indirection.
	for _, l := range loops {
		for _, b := range fn.Blocks {
			if l.body[b.Index] {
				l.blocks = append(l.blocks, b)
			}
		}
		slices.SortFunc(l.blocks, func(a, b *Block) int {
			switch {
			case a == l.Header:
				return -1
			case b == l.Header:
				return 1
			}
			return cmp.Compare(a.Addr, b.Addr)
		})
		for _, b := range l.blocks {
			isExit := false
			for _, s := range b.Succs {
				if !l.body[s.Index] {
					isExit = true
					if !containsBlock(l.ExitTargets, s) {
						l.ExitTargets = append(l.ExitTargets, s)
					}
				}
			}
			if isExit {
				l.Exits = append(l.Exits, b)
			}
			last := b.Last()
			if last.Op.IsCall() {
				if last.Op == guest.CALL {
					l.CallTargets = append(l.CallTargets, uint64(last.Imm))
				} else {
					l.HasIndirect = true
				}
			}
			if last.Op == guest.JMPI {
				l.HasIndirect = true
			}
		}
	}

	// Nesting: loop A is nested in B if B's body contains A's header and
	// A != B. Choose the smallest such B as parent.
	for _, a := range loops {
		var parent *Loop
		for _, b := range loops {
			if a == b || !b.body[a.Header.Index] {
				continue
			}
			if parent == nil || len(b.blocks) < len(parent.blocks) {
				parent = b
			}
		}
		a.Parent = parent
		if parent != nil {
			parent.Children = append(parent.Children, a)
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	fn.Loops = loops
}

func collectBody(l *Loop, latch *Block) {
	work := []*Block{latch}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if l.body[b.Index] {
			continue
		}
		l.body[b.Index] = true
		work = append(work, b.Preds...)
	}
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

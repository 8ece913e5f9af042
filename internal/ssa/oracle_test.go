package ssa_test

import (
	"fmt"
	"testing"

	"janus/internal/cfg"
	"janus/internal/genkern"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/ssa"
	"janus/internal/workloads"
)

// refValue is a value of the reference construction below.
type refValue struct {
	kind  ssa.ValueKind
	block *cfg.Block
	idx   int
	reg   guest.Reg
	flags bool
	args  []*refValue
}

// refSSA is SSA built the straightforward way, with maps keyed by
// instruction, block and register and liveness recomputed into fresh
// maps on every pass. It is the oracle the dense construction must
// agree with.
type refSSA struct {
	use     map[ssa.InstRef]map[guest.Reg]*refValue
	defs    map[ssa.InstRef][]*refValue
	phis    map[*cfg.Block][]*refValue
	entry   map[*cfg.Block]map[guest.Reg]*refValue
	liveOut map[*cfg.Block]map[guest.Reg]bool
}

const refFlags = int(guest.RegTLS) + 1

func refLoc(l guest.Loc) (int, bool) {
	switch l.Kind {
	case guest.LocReg:
		if l.Reg <= guest.RegTLS {
			return int(l.Reg), true
		}
	case guest.LocFlags:
		return refFlags, true
	}
	return 0, false
}

func refNew(kind ssa.ValueKind, l int) *refValue {
	if l == refFlags {
		return &refValue{kind: kind, reg: guest.RegNone, flags: true}
	}
	return &refValue{kind: kind, reg: guest.Reg(l)}
}

func refBuild(fn *cfg.Func) *refSSA {
	s := &refSSA{
		use:     map[ssa.InstRef]map[guest.Reg]*refValue{},
		defs:    map[ssa.InstRef][]*refValue{},
		phis:    map[*cfg.Block][]*refValue{},
		entry:   map[*cfg.Block]map[guest.Reg]*refValue{},
		liveOut: refLiveness(fn),
	}
	defBlocks := make([][]*cfg.Block, refFlags+1)
	for _, b := range fn.Blocks {
		seen := map[int]bool{}
		for _, in := range b.Insts {
			for _, d := range in.Defs() {
				if l, ok := refLoc(d); ok && !seen[l] {
					seen[l] = true
					defBlocks[l] = append(defBlocks[l], b)
				}
			}
		}
	}
	df := fn.DominanceFrontier()
	phiAt := map[*cfg.Block]map[int]*refValue{}
	for _, b := range fn.Blocks {
		phiAt[b] = map[int]*refValue{}
	}
	for l := range defBlocks {
		work := append([]*cfg.Block(nil), defBlocks[l]...)
		inWork := map[*cfg.Block]bool{}
		for _, b := range work {
			inWork[b] = true
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range df[b.Index] {
				if phiAt[f][l] != nil {
					continue
				}
				phi := refNew(ssa.PhiDef, l)
				phi.block = f
				phi.args = make([]*refValue, len(f.Preds))
				phiAt[f][l] = phi
				s.phis[f] = append(s.phis[f], phi)
				if !inWork[f] {
					inWork[f] = true
					work = append(work, f)
				}
			}
		}
	}
	children := map[*cfg.Block][]*cfg.Block{}
	for _, b := range fn.Blocks {
		if id := fn.Idom(b); id != nil {
			children[id] = append(children[id], b)
		}
	}
	cur := make([]*refValue, refFlags+1)
	for l := range cur {
		cur[l] = refNew(ssa.Param, l)
	}
	var rename func(b *cfg.Block, cur []*refValue)
	rename = func(b *cfg.Block, cur []*refValue) {
		local := append([]*refValue(nil), cur...)
		for l, phi := range phiAt[b] {
			local[l] = phi
		}
		entry := map[guest.Reg]*refValue{}
		for r := guest.Reg(0); r < guest.NumGPR; r++ {
			entry[r] = local[r]
		}
		s.entry[b] = entry
		for i, in := range b.Insts {
			ref := ssa.InstRef{Block: b, Idx: i}
			for _, u := range in.Uses() {
				if u.Kind == guest.LocReg && u.Reg <= guest.RegTLS {
					if s.use[ref] == nil {
						s.use[ref] = map[guest.Reg]*refValue{}
					}
					s.use[ref][u.Reg] = local[u.Reg]
				}
			}
			for _, d := range in.Defs() {
				l, ok := refLoc(d)
				if !ok {
					continue
				}
				v := refNew(ssa.InstDef, l)
				v.block, v.idx = b, i
				local[l] = v
				s.defs[ref] = append(s.defs[ref], v)
			}
		}
		for _, succ := range b.Succs {
			pi := -1
			for i, p := range succ.Preds {
				if p == b {
					pi = i
					break
				}
			}
			for l, phi := range phiAt[succ] {
				phi.args[pi] = local[l]
			}
		}
		for _, c := range children[b] {
			rename(c, local)
		}
	}
	if fn.Entry != nil {
		rename(fn.Entry, cur)
	}
	return s
}

func refLiveness(fn *cfg.Func) map[*cfg.Block]map[guest.Reg]bool {
	gen := map[*cfg.Block]map[guest.Reg]bool{}
	kill := map[*cfg.Block]map[guest.Reg]bool{}
	for _, b := range fn.Blocks {
		g, k := map[guest.Reg]bool{}, map[guest.Reg]bool{}
		for _, in := range b.Insts {
			for _, u := range in.Uses() {
				if u.Kind == guest.LocReg && !k[u.Reg] {
					g[u.Reg] = true
				}
			}
			for _, d := range in.Defs() {
				if d.Kind == guest.LocReg {
					k[d.Reg] = true
				}
			}
		}
		gen[b], kill[b] = g, k
	}
	liveIn := map[*cfg.Block]map[guest.Reg]bool{}
	liveOut := map[*cfg.Block]map[guest.Reg]bool{}
	for changed := true; changed; {
		changed = false
		for i := len(fn.Blocks) - 1; i >= 0; i-- {
			b := fn.Blocks[i]
			out := map[guest.Reg]bool{}
			for _, succ := range b.Succs {
				for r := range liveIn[succ] {
					out[r] = true
				}
			}
			in := map[guest.Reg]bool{}
			for r := range gen[b] {
				in[r] = true
			}
			for r := range out {
				if !kill[b][r] {
					in[r] = true
				}
			}
			if len(out) != len(liveOut[b]) || len(in) != len(liveIn[b]) {
				changed = true
			}
			liveOut[b], liveIn[b] = out, in
		}
	}
	return liveOut
}

func (s *refSSA) useOf(ref ssa.InstRef, r guest.Reg) *refValue { return s.use[ref][r] }

func (s *refSSA) defOfReg(ref ssa.InstRef, r guest.Reg) *refValue {
	for _, v := range s.defs[ref] {
		if !v.flags && v.reg == r {
			return v
		}
	}
	return nil
}

func (s *refSSA) phiFor(b *cfg.Block, r guest.Reg) *refValue {
	for _, phi := range s.phis[b] {
		if !phi.flags && phi.reg == r {
			return phi
		}
	}
	return nil
}

// key names a value by what defines it: kind, block, instruction index
// and register.
func key(kind ssa.ValueKind, b *cfg.Block, idx int, reg guest.Reg, flags bool) string {
	where := "-"
	if b != nil {
		where = fmt.Sprintf("%#x", b.Addr)
	}
	if flags {
		return fmt.Sprintf("%d@%s.%d:flags", kind, where, idx)
	}
	return fmt.Sprintf("%d@%s.%d:%s", kind, where, idx, reg)
}

func denseKey(v *ssa.Value) string {
	if v == nil {
		return "nil"
	}
	return key(v.Kind, v.Block, v.InstIdx, v.Reg, v.IsFlags)
}

func refKey(v *refValue) string {
	if v == nil {
		return "nil"
	}
	return key(v.kind, v.block, v.idx, v.reg, v.flags)
}

// compareWithOracle checks every accessor of the dense SSA of every
// function in exe against the reference construction.
func compareWithOracle(t *testing.T, name string, exe *obj.Executable) {
	t.Helper()
	p, err := cfg.Build(exe)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, fn := range p.Funcs {
		got, want := ssa.Build(fn), refBuild(fn)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s %s: %s", name, fn.Name, fmt.Sprintf(format, args...))
		}
		headers := map[*cfg.Block]bool{}
		for _, l := range fn.Loops {
			headers[l.Header] = true
			checkLoopValues(t, got, l, fail)
		}
		for _, b := range fn.Blocks {
			entry := got.EntryOf(b)
			for r := guest.Reg(0); r <= guest.RegTLS; r++ {
				if g, w := got.LiveOutOf(b, r), want.liveOut[b][r]; g != w {
					fail("block %#x: LiveOutOf(%s) = %v, want %v", b.Addr, r, g, w)
				}
				gp, wp := got.PhiFor(b, r), want.phiFor(b, r)
				if g, w := denseKey(gp), refKey(wp); g != w {
					fail("block %#x: PhiFor(%s) = %s, want %s", b.Addr, r, g, w)
				}
				if gp != nil {
					for i := range wp.args {
						if g, w := denseKey(gp.Args[i]), refKey(wp.args[i]); g != w {
							fail("block %#x: phi %s argument %d = %s, want %s", b.Addr, r, i, g, w)
						}
					}
				}
				// Entry state is kept for loop headers alone.
				if r < guest.NumGPR {
					w := "nil"
					if headers[b] {
						w = refKey(want.entry[b][r])
					}
					if g := denseKey(entry[r]); g != w {
						fail("block %#x: EntryOf[%s] = %s, want %s", b.Addr, r, g, w)
					}
				}
			}
			for i := range b.Insts {
				ref := ssa.InstRef{Block: b, Idx: i}
				for r := guest.Reg(0); r <= guest.RegTLS; r++ {
					if g, w := denseKey(got.UseOf(ref, r)), refKey(want.useOf(ref, r)); g != w {
						fail("%#x: UseOf(%s) = %s, want %s", ref.Addr(), r, g, w)
					}
					if g, w := denseKey(got.DefOfReg(ref, r)), refKey(want.defOfReg(ref, r)); g != w {
						fail("%#x: DefOfReg(%s) = %s, want %s", ref.Addr(), r, g, w)
					}
				}
			}
		}
	}
}

// checkLoopValues fails unless LoopValues(l) holds exactly the values
// l's blocks define: the phis in one range, the instruction defs in the
// other.
func checkLoopValues(t *testing.T, s *ssa.SSA, l *cfg.Loop, fail func(string, ...any)) {
	t.Helper()
	phis, defs := s.LoopValues(l)
	nPhis, nDefs := 0, 0
	for _, b := range l.Blocks() {
		for _, v := range s.PhisAt(b) {
			if !phis.Has(v) {
				fail("loop %#x: phi %s outside %+v", l.Header.Addr, v, phis)
			}
			nPhis++
		}
		for i := range b.Insts {
			for _, v := range s.DefsAt(ssa.InstRef{Block: b, Idx: i}) {
				if !defs.Has(v) {
					fail("loop %#x: def %s outside %+v", l.Header.Addr, v, defs)
				}
				nDefs++
			}
		}
	}
	if phis.Len() != nPhis || defs.Len() != nDefs {
		fail("loop %#x: ranges %+v and %+v for %d phis and %d defs", l.Header.Addr, phis, defs, nPhis, nDefs)
	}
}

// TestDenseMatchesMapOracle: liveness, uses, defs, phis and loop-header
// entry state agree with the map-based reference for every registry
// benchmark at every input and opt level, and for both builds of every
// kernel of the 200-seed generated corpus; every loop's values are
// numbered consecutively.
func TestDenseMatchesMapOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		for _, in := range []workloads.Input{workloads.Train, workloads.Ref} {
			for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
				exe, _, err := workloads.Build(name, in, opt)
				if err != nil {
					t.Fatal(err)
				}
				compareWithOracle(t, fmt.Sprintf("%s/%s/%s", name, in, opt), exe)
			}
		}
	}
	for seed := uint64(1); seed <= 200; seed++ { // TestSeededCorpus's corpus
		k, err := genkern.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		compareWithOracle(t, k.Repro()+" ref", k.Ref)
		compareWithOracle(t, k.Repro()+" train", k.Train)
	}
}

package analyzer

import (
	"fmt"
	"sort"

	"janus/internal/guest"
	"janus/internal/rules"
	"janus/internal/sym"
)

// libCallSites returns the loop's PLT call sites in address order.
// Schedules must serialise to identical bytes across runs — the
// durable artifact cache keys DBM results by the schedule hash — so
// rule emission never iterates the LibCalls map directly.
func libCallSites(li *LoopInfo) []uint64 {
	sites := make([]uint64, 0, len(li.LibCalls))
	for site := range li.LibCalls {
		sites = append(sites, site)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// GenProfileSchedule emits the profiling rewrite schedule: loop
// coverage instrumentation for every feasible loop, plus memory-access
// instrumentation for ambiguous loops (paper §II-C: only the loops of
// interest, and only certain instructions within them, are
// instrumented). It emits no PROF_EXCALL_START/FINISH pair: nothing
// reads an external-call profile, and each pair would end a block
// before the call it brackets. The rule IDs stay, so schedule files
// that carry them still load.
func (p *Program) GenProfileSchedule() *rules.Schedule {
	s := &rules.Schedule{ExeName: p.Exe.Name, ExeSize: uint64(p.Exe.Size())}
	for _, li := range p.Loops {
		// Incompatible loops are never parallelisation candidates, but
		// they are still instrumented for coverage so the evaluation
		// can report how much execution time they account for (the
		// black bars of figure 6).
		l := li.Loop
		s.Append(rules.Rule{Addr: l.Header.Addr, ID: rules.PROF_LOOP_ITER, LoopID: int32(li.ID), Data: rules.ProfLoopData{}})
		for _, et := range l.ExitTargets {
			s.Append(rules.Rule{Addr: et.Addr, ID: rules.PROF_LOOP_FINISH, LoopID: int32(li.ID), Data: rules.ProfLoopData{}})
		}
		if li.Class == ClassDynDOALL || li.Class == ClassDynDep {
			// Dependence profiling: instrument the ambiguous accesses
			// and all writes (to catch conflicts against them).
			for _, acc := range li.Dep.Unanalyzable {
				s.Append(rules.Rule{Addr: acc.Ref.Addr(), ID: rules.PROF_MEM_ACCESS, LoopID: int32(li.ID), Data: rules.ProfMemData{}})
			}
			for _, g := range li.Dep.Groups {
				if len(g.Base.Regs) == 0 {
					continue // constant bases were fully analysed
				}
				for _, acc := range g.Accesses {
					s.Append(rules.Rule{Addr: acc.Ref.Addr(), ID: rules.PROF_MEM_ACCESS, LoopID: int32(li.ID), Data: rules.ProfMemData{}})
				}
			}
		}
	}
	return s
}

// GenParallelSchedule emits the parallelisation rewrite schedule for
// the selected loops (figure 2(a)'s generation pass).
func (p *Program) GenParallelSchedule() (*rules.Schedule, error) {
	s := &rules.Schedule{ExeName: p.Exe.Name, ExeSize: uint64(p.Exe.Size())}
	for _, li := range p.Loops {
		if !li.Selected {
			continue
		}
		if err := p.genLoopRules(s, li); err != nil {
			return nil, fmt.Errorf("analyzer: loop %d: %w", li.ID, err)
		}
	}
	return s, nil
}

func (p *Program) genLoopRules(s *rules.Schedule, li *LoopInfo) error {
	l := li.Loop
	la := li.Sym
	id := int32(li.ID)
	if la.MainIV == nil || la.Trip == nil {
		return fmt.Errorf("selected loop lacks iterator or trip count")
	}

	// Induction and reduction specs shared by INIT and FINISH.
	var ivs []rules.InductionSpec
	for _, iv := range la.Inductions {
		if iv.Init.Unknown {
			return fmt.Errorf("induction %s has unknown initial value", iv.Reg)
		}
		ivs = append(ivs, rules.InductionSpec{Reg: iv.Reg, Init: iv.Init, Step: iv.Step})
	}
	var reds []rules.ReductionSpec
	for _, rd := range la.Reductions {
		reds = append(reds, rules.ReductionSpec{Reg: rd.Reg, Op: rd.Op})
	}
	trip := rules.TripSpec{Known: true, Num: la.Trip.Num, Den: la.Trip.Den, Round: la.Trip.Round}

	// THREAD_SCHEDULE + LOOP_INIT trigger at the loop header: the first
	// point where the loop's entry state (iterator initial value, bound
	// registers, array bases) is fully established. The DBM fires the
	// handler only when entering from outside the loop.
	initAddr := l.Header.Addr
	s.Append(rules.Rule{Addr: initAddr, ID: rules.THREAD_SCHEDULE, LoopID: id, Data: rules.ThreadData{Target: l.Header.Addr}})
	s.Append(rules.Rule{Addr: initAddr, ID: rules.LOOP_INIT, LoopID: id, Data: rules.LoopInitData{
		Inductions: ivs,
		Reductions: reds,
		Trip:       trip,
		// Selection admits only trip counts computable before the
		// loop, so no loop needs round-robin's ChunkSize.
		Policy:    rules.PolicyChunked,
		LoopStart: l.Header.Addr,
	}})

	// Bounds checks guard the same point.
	if len(li.Dep.Checks) > 0 {
		s.Append(rules.Rule{Addr: initAddr, ID: rules.MEM_BOUNDS_CHECK, LoopID: id, Data: rules.BoundsCheckData{Ranges: li.Dep.Checks}})
	}

	// LOOP_UPDATE_BOUND at the exit compare.
	s.Append(rules.Rule{Addr: la.CmpAddr, ID: rules.LOOP_UPDATE_BOUND, LoopID: id, Data: rules.UpdateBoundData{
		CmpAddr:  la.CmpAddr,
		IsImm:    la.BoundIsImm,
		BoundReg: la.BoundReg,
		IVReg:    la.MainIV.Reg,
		Step:     la.MainIV.Step,
		Init:     la.MainIV.Init,
		ExitOp:   la.LeaveOp,
	}})

	// LOOP_FINISH + THREAD_YIELD at each exit target.
	finish := rules.LoopFinishData{Inductions: ivs, Reductions: reds, LiveOut: liveOutNonIV(la)}
	for _, et := range l.ExitTargets {
		s.Append(rules.Rule{Addr: et.Addr, ID: rules.LOOP_FINISH, LoopID: id, Data: finish})
		s.Append(rules.Rule{Addr: et.Addr, ID: rules.THREAD_YIELD, LoopID: id, Data: rules.ThreadData{}})
	}

	// Privatised scalar cells.
	for slot, pg := range li.Dep.Privatisable {
		for _, ref := range pg.Refs {
			s.Append(rules.Rule{Addr: ref.Addr(), ID: rules.MEM_PRIVATISE, LoopID: id, Data: rules.MemPrivatiseData{Slot: int32(slot), Size: pg.Size, SharedAddr: pg.Addr}})
		}
	}

	// Read-only stack accesses redirected to the main stack.
	for _, ref := range li.Dep.MainStackReads {
		s.Append(rules.Rule{Addr: ref.Addr(), ID: rules.MEM_MAIN_STACK, LoopID: id, Data: rules.MemMainStackData{}})
	}

	// Shared-library calls wrapped in software transactions.
	for _, site := range libCallSites(li) {
		s.Append(rules.Rule{Addr: site, ID: rules.TX_START, LoopID: id, Data: rules.TxData{CallTarget: site}})
		s.Append(rules.Rule{Addr: site + guest.InstSize, ID: rules.TX_FINISH, LoopID: id, Data: rules.TxData{}})
	}
	return nil
}

// liveOutNonIV lists live-out registers that are not induction or
// reduction registers (those are reconstructed analytically).
func liveOutNonIV(la *sym.Analysis) []guest.Reg {
	var skip guest.RegSet
	for _, iv := range la.Inductions {
		skip = skip.With(iv.Reg)
	}
	for _, rd := range la.Reductions {
		skip = skip.With(rd.Reg)
	}
	var out []guest.Reg
	for _, r := range la.LiveOutRegs {
		if !skip.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

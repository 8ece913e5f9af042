package dbm

import (
	"fmt"
	"runtime/debug"

	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
	"janus/internal/vm"
)

// runParallelLoop is the LOOP_INIT handler on the main thread: it
// evaluates the guarding bounds check, partitions the iteration space,
// spins up the thread pool on the loop, steps the threads round-robin
// to completion, and merges the loop contexts (LOOP_FINISH).
func (ex *Executor) runParallelLoop(mainT *jrt.Thread, r *rules.Rule, l *loopRec) (*redirect, error) {
	ld := r.Data.(rules.LoopInitData)
	main := mainT.Ctx
	ex.Stats.Invocations++
	entry := func(reg guest.Reg) uint64 { return main.Reg(reg) }

	// Trip count for this invocation.
	n, known := ld.Trip.Count(entry)
	if !known || n <= 0 {
		ex.Stats.SeqFallbacks++
		return nil, nil
	}
	// Profitability floor.
	if n < int64(ex.Cfg.Threads)*ex.Cfg.MinIterPerThread {
		ex.Stats.SeqFallbacks++
		return nil, nil
	}

	// Runtime array-base check (§II-E1): all ranges written must be
	// disjoint from every other range. The applicable rules were indexed
	// at construction time.
	for _, d := range l.checks[r.Addr] {
		ex.Stats.ChecksRun++
		main.Cycles += int64(len(d.Ranges)) * ex.Cfg.Cost.CheckPerRange
		ex.Stats.CheckCycles += int64(len(d.Ranges)) * ex.Cfg.Cost.CheckPerRange
		if !boundsCheckPasses(d, entry, n) {
			ex.Stats.ChecksFailed++
			ex.Stats.SeqFallbacks++
			// The loop was already modified in the code caches: flush
			// and reload the original code (the handlers are inert
			// outside parallel mode, so re-translation is enough).
			ex.flushCaches()
			return nil, nil
		}
	}

	if !l.hasBound {
		return nil, fmt.Errorf("dbm: loop %d has no LOOP_UPDATE_BOUND rule: %w", l.id, ErrBadSchedule)
	}
	if len(l.exits) == 0 {
		return nil, fmt.Errorf("dbm: loop %d has no exit targets: %w", l.id, ErrBadSchedule)
	}

	// Build the loop context, partition and launch.
	l.enter(ld, n, main, entry)
	lc := l.lc
	chunks := jrt.PartitionChunked(n, ex.Cfg.Threads)
	if err := ex.buildRegionThreads(l, entry, chunks); err != nil {
		return nil, err
	}

	// Region execution. Both engines produce bit-identical per-thread
	// virtual clocks and memory images; the speculative engine
	// (steal.go) is chosen only when the static eligibility scan proves
	// the loop body free of cross-thread interactions the round-robin
	// schedule would otherwise order (see hostpar.go). It runs under an
	// undo log and falls back to round-robin on any failure (see
	// recover.go), so a recovered region renders exactly what a pure
	// round-robin run renders.
	ex.loop = l
	ex.Stats.ParRegions++
	defer func() { ex.loop = nil }()

	var engineErr error
	if scanned := ex.hostParEligible(l, ld.LoopStart); scanned != nil {
		ex.Stats.HostParRegions++
		engineErr = ex.runRegionRecoverable(l, entry, chunks, scanned)
	} else {
		engineErr = ex.runRegionRoundRobin(l)
	}
	// Fold thread-local counters in thread-ID order — a deterministic
	// schedule-independent point, identical for both engines. A failed
	// speculative attempt's counters were wiped unfolded when recovery
	// rebuilt the threads; only what produced the region's result
	// reaches this point.
	var maxCycles, totalInsts int64
	for _, rec := range ex.threads {
		ex.fold(&rec.region)
		maxCycles = max(maxCycles, rec.region.Ctx.Cycles)
		totalInsts += rec.region.Ctx.Insts
	}
	if engineErr != nil {
		return nil, engineErr
	}

	// Virtual time: the region took as long as its slowest thread, plus
	// init/finish orchestration.
	initFinish := ex.Cfg.Cost.LoopInitBase + ex.Cfg.Cost.LoopFinishBase +
		int64(ex.Cfg.Threads)*(ex.Cfg.Cost.LoopInitPerThread+ex.Cfg.Cost.LoopFinishPerThread)
	main.Cycles += maxCycles + initFinish
	ex.Stats.ParCycles += maxCycles
	ex.Stats.InitFinishCycles += initFinish
	main.Insts += totalInsts

	// LOOP_FINISH: combine loop contexts from all threads.
	for j, iv := range ld.Inductions {
		main.SetReg(iv.Reg, uint64(l.ivInit[j]+iv.Step*n))
	}
	for _, red := range l.finish.Reductions {
		acc := main.Reg(red.Reg) // initial value flows through main
		for _, rec := range ex.threads {
			acc = jrt.MergeReduction(red.Op, acc, rec.region.Ctx.Reg(red.Reg))
		}
		main.SetReg(red.Reg, acc)
	}
	if last := ex.lastNonEmpty(); last != nil {
		for _, lo := range l.finish.LiveOut {
			main.SetReg(lo, last.Ctx.Reg(lo))
		}
		main.ZF, main.LF = last.Ctx.ZF, last.Ctx.LF
		// Copy privatised cells back to shared memory from the thread
		// that executed the final iteration, one page-span copy at a
		// time.
		for slot, ps := range lc.PrivSlots {
			ex.M.Mem.Copy(ps.SharedAddr, jrt.PrivAddr(last.ID, slot), int(ps.Size))
		}
	}

	// Resume sequential execution at the loop's primary exit target
	// (the smallest LOOP_FINISH address, fixed at construction time so
	// the resume point never depends on map iteration order).
	return &redirect{pc: l.exit}, nil
}

// enter re-initialises the loop's context for an invocation of n
// iterations entered with main's registers. The context is reused from
// region to region, so every field is assigned here.
func (l *loopRec) enter(ld rules.LoopInitData, n int64, main *vm.Context, entry func(guest.Reg) uint64) {
	if l.lc == nil {
		l.lc = &jrt.LoopCtx{}
	}
	privs := l.lc.PrivSlots
	if privs == nil {
		privs = make(map[int32]jrt.PrivSlot, len(l.priv))
	}
	clear(privs)
	for slot, pd := range l.priv {
		privs[slot] = jrt.PrivSlot{SharedAddr: uint64(pd.SharedAddr.Eval(entry, 0)), Size: pd.Size}
	}
	*l.lc = jrt.LoopCtx{
		LoopID:      l.id,
		Init:        ld,
		Trip:        n,
		MainSP:      main.Reg(guest.SP),
		EntryVRegs:  main.VReg,
		ExitTargets: l.exits,
		ExitPrimary: l.exit,
		PrivSlots:   privs,
	}
	copy(l.lc.EntryRegs[:], main.GPR[:])
	l.ivInit = l.ivInit[:0]
	for _, iv := range ld.Inductions {
		l.ivInit = append(l.ivInit, iv.Init.Eval(entry, 0))
	}
}

// runRegionRoundRobin steps the region's threads round-robin at basic-
// block granularity on the calling goroutine. This is the fully general
// engine: the deterministic schedule orders speculative commits (oldest
// thread first) and serialises syscalls, so every loop can run under
// it.
func (ex *Executor) runRegionRoundRobin(l *loopRec) (err error) {
	// The round-robin engine runs on the orchestrating goroutine, so a
	// panicking handler or guest bug would otherwise unwind the whole
	// process; contain it as a fatal RegionError (this engine is the
	// fallback — there is nothing left to recover to).
	cur := -1
	defer func() {
		if p := recover(); p != nil {
			err = panicErr(l.id, cur, p, debug.Stack())
		}
	}()
	active := 0
	for _, rec := range ex.threads {
		if th := &rec.region; th.State != jrt.StateDone {
			th.State = jrt.StateRunning
			active++
		}
	}
	guard := ex.Cfg.MaxSteps
	for active > 0 {
		oldest := ex.oldestRunning()
		progressed := false
		for _, rec := range ex.threads {
			th := &rec.region
			if th.State != jrt.StateRunning {
				continue
			}
			// An aborted speculative thread waits until it is oldest
			// before re-executing non-speculatively.
			if rec.suppressTx && th.ID != oldest {
				continue
			}
			// Per-block guard check, the boundary the speculative
			// engine's block budget enforces too: a region fails iff it
			// dispatches more than MaxSteps blocks, under either engine.
			if guard <= 0 {
				return regionErr(l.id, -1, ErrRegionStuck)
			}
			th.Oldest = th.ID == oldest
			cur = th.ID
			if err := ex.stepBlock(th); err != nil {
				return regionErr(l.id, th.ID, err)
			}
			progressed = true
			guard--
			if l.lc.IsExit(th.Ctx.PC) {
				th.State = jrt.StateDone
				if rec.tx != nil {
					// A transaction left open across the chunk end:
					// validate/commit now.
					if rd, err := ex.finishTx(th, rec); err != nil {
						return err
					} else if rd != nil {
						th.Ctx.PC = rd.pc
						th.State = jrt.StateRunning
						continue
					}
				}
				active--
			}
		}
		if !progressed {
			return regionErr(l.id, -1, ErrRegionStuck)
		}
	}
	return nil
}

// boundsCheckPasses evaluates the runtime array-base check: every
// written range must be disjoint from every other range.
func boundsCheckPasses(d rules.BoundsCheckData, entry func(guest.Reg) uint64, trip int64) bool {
	type iv struct {
		lo, hi int64
		write  bool
	}
	ivs := make([]iv, len(d.Ranges))
	for i, rg := range d.Ranges {
		lo, hi := rg.Interval(entry, trip)
		ivs[i] = iv{lo: lo, hi: hi, write: rg.Write}
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if !ivs[i].write && !ivs[j].write {
				continue
			}
			if ivs[i].lo < ivs[j].hi && ivs[j].lo < ivs[i].hi {
				return false
			}
		}
	}
	return true
}

// oldestRunning returns the ID of the lowest running region thread, -1
// if none runs.
func (ex *Executor) oldestRunning() int {
	for _, rec := range ex.threads {
		if rec.region.State == jrt.StateRunning {
			return rec.region.ID
		}
	}
	return -1
}

// lastNonEmpty returns the region thread that ran the loop's final
// iteration, nil if every chunk is empty.
func (ex *Executor) lastNonEmpty() *jrt.Thread {
	for i := len(ex.threads) - 1; i >= 0; i-- {
		if th := &ex.threads[i].region; th.Hi > th.Lo {
			return th
		}
	}
	return nil
}

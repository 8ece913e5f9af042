package dbm

import (
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/vm"
)

// Region-level speculation recovery.
//
// The speculative engine (steal.go) runs a region concurrently only
// after the eligibility scan (hostpar.go) proves the threads cannot
// observe each other — but the backstops that enforce that
// proof at runtime (the allowlist, the block budget, panic
// containment) can still trip. Rather than abort the run, the region
// is executed under an undo log and re-executed deterministically:
//
//	snapshot memory (vm.Checkpoint, copy-on-first-write)
//	arm the fault injector, journal translation charges
//	run the speculative engine
//	on success: discard the snapshot and the journal
//	on ANY failure: restore memory, undo the journaled charges,
//	  drop the region caches, rebuild the guest threads, demote the
//	  loop to the round-robin engine for the rest of the run, and
//	  re-execute the region round-robin
//
// The round-robin re-execution is the arbiter: a transient failure
// (injected fault, defeated scan, exhausted budget, worker panic)
// re-executes cleanly and the run renders byte-identical output to a
// pure round-robin run; a genuine guest fault (divide by zero, bad
// fetch) reproduces deterministically and fails the run with
// round-robin's error.
//
// Why the rollback is complete — the contamination channels of a
// failed speculative attempt, and how each is undone:
//
//   - Guest memory: restored exactly by the checkpoint.
//   - Thread records: buildRegionThreads re-initialises every field
//     of the region threads, their contexts and patched bounds from the
//     loop-entry snapshot, never folded; a worker's thread, context and
//     block count are re-initialised when a worker next starts.
//   - Translation charges and code caches: chargeTranslation journals
//     every (thread, block) pair first charged inside the region, and
//     threadRec.reset deletes exactly those ledger entries, so the
//     re-execution re-charges them just as a from-scratch round-robin
//     run would. It drops the caches wholesale with them, since their
//     blocks' chargeMask stamps memoise the entries just deleted
//     (selective eviction is unsound — sibling blocks' inline link
//     caches bypass the cache map). Harmless to virtual time: the
//     ledger decides a charge, not a cache miss.
//   - Loop record: its context and engine scratch are re-initialised
//     in full by the next region; only the demotion latch is kept.
//   - Executor stats, profilers, transactions, output: unreachable
//     from inside a speculative region by construction (profilers
//     are ineligible, syscalls/TX trip the allowlist before running).

// runRegionRecoverable executes an eligible region under the
// speculative engine with full undo, falling back to the round-robin
// engine on any failure.
func (ex *Executor) runRegionRecoverable(l *loopRec, entry func(guest.Reg) uint64, chunks []jrt.Chunk, scanned map[uint64]bool) error {
	cp := ex.M.Mem.Snapshot()
	ex.inj.Arm()
	factor := ex.stealFactor(l)
	if factor > 1 {
		ex.Stats.StealRegions++
	}
	if ex.runRegionSpeculative(l, entry, factor, scanned) == nil {
		cp.Discard()
		for _, rec := range ex.threads {
			rec.chargeUndo = rec.chargeUndo[:0] // the charges stand
		}
		return nil
	}

	// Recover: undo every effect of the failed attempt, then re-execute
	// deterministically.
	cp.Restore()
	for _, rec := range ex.threads {
		rec.reset(false)
	}
	ex.Stats.ParRecoveries++
	ex.demote(l)
	if err := ex.buildRegionThreads(l, entry, chunks); err != nil {
		return err
	}
	return ex.runRegionRoundRobin(l)
}

// initRegionCtx points ctx at the start of iteration lo of l's loop as
// guest thread (or host worker) id enters it: the loop-entry register
// snapshot (vector registers included) with id's TLS base and rebased
// stack, induction variables advanced from their loop-entry values to
// lo, reductions at identity, flags and clocks cleared, PC at the loop
// head, memory through id's own view. Contexts are reused from region
// to region, so every field is assigned here — nothing a previous
// region left (a halt, an open transaction's bus) survives.
func (ex *Executor) initRegionCtx(ctx *vm.Context, id int, l *loopRec, lo int64) {
	lc := l.lc
	*ctx = vm.Context{ID: id, Bus: ex.threads[id].view, GPR: lc.EntryRegs, VReg: lc.EntryVRegs, PC: lc.Init.LoopStart}
	ctx.GPR[guest.RegTLS] = jrt.TLSFor(id)
	if id != 0 {
		ctx.SetReg(guest.SP, jrt.StackTopFor(id))
	}
	for j, iv := range lc.Init.Inductions {
		ctx.SetReg(iv.Reg, uint64(l.ivInit[j]+iv.Step*lo))
	}
	for _, red := range lc.Init.Reductions {
		ctx.SetReg(red.Reg, jrt.ReductionIdentity(red.Op))
	}
}

// buildRegionThreads sets up the region's guest threads, one per static
// chunk, each initialised at its chunk base (initRegionCtx) with its
// patched bound in its record. The threads are the records' own,
// re-initialised in full for every region. Recovery calls it a second
// time, which wipes whatever the failed attempt left in them.
func (ex *Executor) buildRegionThreads(l *loopRec, entry func(guest.Reg) uint64, chunks []jrt.Chunk) error {
	for i, rec := range ex.threads {
		th := &rec.region
		if th.Ctx == nil {
			th.Ctx = &vm.Context{}
		}
		ex.initRegionCtx(th.Ctx, i, l, chunks[i].Lo)
		bv, err := jrt.PatchedBound(l.bound, entry, chunks[i].Hi)
		if err != nil {
			return err
		}
		rec.bound = bv
		*th = jrt.Thread{ID: i, Owner: i, Ctx: th.Ctx, Lo: chunks[i].Lo, Hi: chunks[i].Hi, State: jrt.StateScheduled}
		if chunks[i].Lo >= chunks[i].Hi {
			th.State = jrt.StateDone
		}
	}
	return nil
}

// demote latches a loop onto the round-robin engine after a recovery.
// Unlike the sequential-fallback latch this one is never released: the
// speculative attempt already failed once on this loop, and
// re-speculating would re-pay the checkpoint and re-risk the fault
// every invocation.
func (ex *Executor) demote(l *loopRec) {
	if !l.demoted {
		l.demoted = true
		ex.Stats.DemotedLoops++
	}
}

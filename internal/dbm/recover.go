package dbm

import (
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Region-level speculation recovery.
//
// The speculative engine (steal.go) runs a region concurrently only
// after the eligibility scan (hostpar.go) proves the threads cannot
// observe each other — but the backstops that enforce that
// proof at runtime (the allowlist, the shared step budget, panic
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
//   - Thread contexts (registers, cycles, BoundValue): the attempt's
//     jrt.Threads are never folded; buildRegionThreads re-initialises
//     every field of them (and of their contexts) from the loop-entry
//     snapshot, so no counter or register from the failed attempt
//     survives.
//   - Translation charges: chargeTranslation journals every
//     (thread, block) pair first charged inside the region; rollback
//     deletes exactly those entries, so the re-execution re-charges
//     them just as a from-scratch round-robin run would.
//   - Code caches: cleared wholesale, since their blocks' chargeMask
//     stamps memoise the ledger entries just deleted (selective
//     eviction is unsound — sibling blocks' inline link caches bypass
//     the cache map). Harmless to virtual time: the ledger decides a
//     charge, not a cache miss, and its older entries are preserved.
//   - Executor stats, profilers, transactions, output: unreachable
//     from inside a speculative region by construction (profilers
//     are ineligible, syscalls/TX trip the allowlist before running).

// runRegionRecoverable executes an eligible region under the
// speculative engine with full undo, falling back to the round-robin
// engine on any failure. It returns the threads that actually produced
// the region's result (the rebuilt set when recovery ran).
func (ex *Executor) runRegionRecoverable(r rules.Rule, threads []*jrt.Thread, lc *jrt.LoopCtx, ubd rules.UpdateBoundData, entry func(guest.Reg) uint64, ivInit []int64, n int64, chunks []jrt.Chunk, scanned map[uint64]bool) ([]*jrt.Thread, error) {
	cp := ex.M.Mem.Snapshot()
	ex.inj.Arm()
	factor := ex.stealFactor(r.LoopID, lc.Init)
	if factor > 1 {
		ex.Stats.StealRegions++
	}
	if ex.runRegionSpeculative(r.LoopID, threads, lc, ubd, entry, ivInit, n, factor, scanned) == nil {
		cp.Discard()
		ex.commitCharges()
		return threads, nil
	}

	// Recover: undo every effect of the failed attempt, then re-execute
	// deterministically.
	cp.Restore()
	ex.rollbackCharges()
	ex.clearRegionCaches()
	ex.Stats.ParRecoveries++
	ex.demote(r.LoopID)
	rebuilt, err := ex.buildRegionThreads(lc, ubd, entry, ivInit, chunks)
	if err != nil {
		return threads, err
	}
	return rebuilt, ex.runRegionRoundRobin(r.LoopID, rebuilt, lc)
}

// initRegionCtx points ctx at the start of iteration lo of lc's loop as
// guest thread (or host worker) id enters it: the loop-entry register
// snapshot (vector registers included) with id's TLS base and rebased
// stack, induction variables (ivInit holds their loop-entry values)
// advanced to lo, reductions at identity, flags and clocks cleared, PC
// at the loop head, memory through id's own view. Contexts are reused
// from region to region, so every field is assigned here — nothing a
// previous region left (a halt, an open transaction's bus) survives.
func (ex *Executor) initRegionCtx(ctx *vm.Context, id int, lc *jrt.LoopCtx, ivInit []int64, lo int64) {
	*ctx = vm.Context{ID: id, Bus: ex.views[id], GPR: lc.EntryRegs, VReg: lc.EntryVRegs, PC: lc.Init.LoopStart}
	ctx.GPR[guest.RegTLS] = jrt.TLSFor(id)
	if id != 0 {
		ctx.SetReg(guest.SP, jrt.StackTopFor(id))
	}
	for j, iv := range lc.Init.Inductions {
		ctx.SetReg(iv.Reg, uint64(ivInit[j]+iv.Step*lo))
	}
	for _, red := range lc.Init.Reductions {
		ctx.SetReg(red.Reg, jrt.ReductionIdentity(red.Op))
	}
}

// newThreadSet allocates one guest thread and context per configured
// thread, each its own object so concurrently running workers do not
// share cache lines.
func (ex *Executor) newThreadSet() []*jrt.Thread {
	set := make([]*jrt.Thread, ex.Cfg.Threads)
	for i := range set {
		set[i] = &jrt.Thread{Ctx: &vm.Context{}}
	}
	return set
}

// buildRegionThreads sets up the region's guest threads, one per
// static chunk, each initialised at its chunk base (initRegionCtx) with
// its patched bound written into lc.BoundValue. The threads are the
// executor's own, allocated at the first region and re-initialised in
// full for every later one. Recovery calls it a second time, which
// wipes whatever the failed attempt left in them.
func (ex *Executor) buildRegionThreads(lc *jrt.LoopCtx, ubd rules.UpdateBoundData, entry func(guest.Reg) uint64, ivInit []int64, chunks []jrt.Chunk) ([]*jrt.Thread, error) {
	if ex.regionThreads == nil {
		ex.regionThreads = ex.newThreadSet()
	}
	for i, th := range ex.regionThreads {
		ex.initRegionCtx(th.Ctx, i, lc, ivInit, chunks[i].Lo)
		bv, err := jrt.PatchedBound(ubd, entry, chunks[i].Hi)
		if err != nil {
			return nil, err
		}
		lc.BoundValue[i] = bv
		*th = jrt.Thread{ID: i, Owner: i, Ctx: th.Ctx, Lo: chunks[i].Lo, Hi: chunks[i].Hi, State: jrt.StateScheduled}
		if chunks[i].Lo >= chunks[i].Hi {
			th.State = jrt.StateDone
		}
	}
	return ex.regionThreads, nil
}

// commitCharges drops the charge journal after a successful speculative
// region: the charges stand.
func (ex *Executor) commitCharges() {
	for i := range ex.chargeUndo {
		ex.chargeUndo[i] = ex.chargeUndo[i][:0]
	}
}

// rollbackCharges removes every (thread, block) translation charge
// first recorded inside the failed region, so re-execution re-charges
// them exactly as an untainted run would.
func (ex *Executor) rollbackCharges() {
	for t := range ex.chargeUndo {
		for _, addr := range ex.chargeUndo[t] {
			delete(ex.charged[t], addr)
		}
		ex.chargeUndo[t] = ex.chargeUndo[t][:0]
	}
}

// clearRegionCaches drops every code cache and dispatch anchor without
// touching the charged sets or the CacheFlushes counter: this is
// rollback bookkeeping, not the paper's modelled cache flush, and it
// must not perturb virtual time (re-translating a charged block is
// free).
func (ex *Executor) clearRegionCaches() {
	for i := range ex.caches {
		ex.caches[i] = map[uint64]*tblock{}
		ex.lastBlk[i] = nil
	}
}

// demoted reports whether a loop is latched onto the round-robin
// engine for the rest of the run.
func (ex *Executor) demoted(loopID int32) bool {
	return int(loopID) < len(ex.demotedLoop) && ex.demotedLoop[loopID]
}

// demote latches a loop onto the round-robin engine after a recovery,
// following the seqLoop grow pattern. Unlike the sequential-fallback
// latch this one is never released: the speculative attempt already
// failed once on this loop, and re-speculating would re-pay the
// checkpoint and re-risk the fault every invocation.
func (ex *Executor) demote(loopID int32) {
	if ex.demoted(loopID) {
		return
	}
	if int(loopID) >= len(ex.demotedLoop) {
		grown := make([]bool, loopID+1, 2*(loopID+1))
		copy(grown, ex.demotedLoop)
		ex.demotedLoop = grown
	}
	ex.demotedLoop[loopID] = true
	ex.Stats.DemotedLoops++
}

package dbm

import (
	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
	"janus/internal/stm"
	"janus/internal/vm"
)

// redirect is returned by handlers that transfer control (a parallel
// region completing, a transaction aborting).
type redirect struct {
	pc uint64
}

// stepBlock translates (or fetches) and executes one basic block for
// thread t.
func (ex *Executor) stepBlock(t *jrt.Thread) error {
	rec := ex.threads[t.ID]
	b, err := ex.blockFor(rec, t.ID, t.Ctx.PC)
	if err != nil {
		return err
	}
	if ex.specSet != nil {
		// Allowlist check: only a defeated eligibility verdict (e.g. a
		// redirected return address) can fail it — refuse rather than
		// execute unscanned code, or a syscall, on a concurrent worker.
		// The verdict is static per (block, loop), so it is stamped on
		// the thread-private block and steady state pays two compares.
		if ex.inj.Fire(faultinject.ScanDefeat) {
			// Forced scan defeat: behave exactly as if this block fell
			// outside the scanned set.
			return ErrScanEscaped
		}
		if b.scanLoop != ex.loop.id {
			b.scanLoop = ex.loop.id
			b.scanOK = !b.hasSyscall && ex.specSet[b.start]
		}
		if !b.scanOK {
			if b.hasSyscall && ex.specSet[b.start] {
				return ErrScanSyscall
			}
			return ErrScanEscaped
		}
	}
	ex.chargeTranslation(t, b)
	rec.lastBlk = b
	c := t.Ctx
	c.Cycles += ex.Cfg.Cost.Dispatch
	// Alternate runs and sites. Every mode a step depends on — profiling,
	// this loop's parallel region, an open transaction — is fixed per
	// executor or changes only in a handler, i.e. at a site, so it is
	// decided once per step, never per instruction, and each step is
	// accounted for in one go.
	for i, si := 0, 0; i < len(b.insts); {
		pc := b.start + uint64(i)*guest.InstSize
		stop := len(b.insts)
		if si < len(b.sites) {
			stop = b.sites[si].idx
		}
		n := 1
		var next uint64
		var err error
		if i < stop {
			if rec.tx != nil {
				// Every access inside a transaction is charged, so a
				// run goes one instruction per step there.
				stop = i + 1
				ex.chargeTxAccess(t, &b.insts[i])
			}
			n, next, err = vm.ExecRun(ex.M, c, b.insts[i:stop], pc)
		} else {
			s := &b.sites[si]
			si++
			for k := range s.pre {
				rd, err := ex.runHandler(t, rec, &b.insts[i], pc, &s.pre[k])
				if err != nil {
					return err
				}
				if rd != nil {
					c.PC = rd.pc
					return nil
				}
			}
			next, err = ex.execSite(t, rec, s, b.insts[i:i+1], pc)
		}
		t.Steps += int64(n)
		if ex.Cfg.Profile {
			ex.Cov.Step(int64(n))
		}
		if err != nil {
			return err
		}
		i += n
		if next != b.start+uint64(i)*guest.InstSize {
			c.PC = next
			return nil
		}
	}
	c.PC = b.end
	return nil
}

// chargeTxAccess charges instruction in, about to execute inside thread
// t's transaction, for the memory access it makes, if any.
func (ex *Executor) chargeTxAccess(t *jrt.Thread, in *guest.Inst) {
	if !in.WritesMem() && !in.ReadsMem() {
		return
	}
	t.Ctx.Cycles += ex.Cfg.Cost.TxPerAccess
	ex.Stats.SpecInsts++
}

// execSite executes site s's instruction, the one element of ins at
// address pc, with the site's transformation, which applies only inside
// the parallel region of the loop whose rule made it.
func (ex *Executor) execSite(t *jrt.Thread, rec *threadRec, s *site, ins []guest.Inst, pc uint64) (uint64, error) {
	c, in, next := t.Ctx, &ins[0], pc+guest.InstSize
	if rec.tx != nil {
		ex.chargeTxAccess(t, in)
	}
	if l := ex.loop; s.kind != execNormal && l != nil && s.loopID == l.id {
		lc := l.lc
		switch s.kind {
		case execPrivatise:
			// MEM_PRIVATISE: the access goes to the thread's TLS slot.
			return vm.ExecInst(ex.M, c, &s.inst, next)
		case execMainStack:
			// MEM_MAIN_STACK: a read-only stack access goes to the main
			// thread's frame. The access' symbolic offset from the entry
			// SP equals its current dynamic offset, so the address is
			// mainSP + (effaddr - threadSP-at-entry); worker SPs are
			// rebased at LOOP_INIT, so the entry SP is simply the
			// worker's SP base.
			entrySP := lc.MainSP
			if t.ID != 0 {
				entrySP = jrt.StackTopFor(t.ID)
			}
			s.inst.M.Disp = int64(lc.MainSP + (c.EffAddr(in.M) - entrySP))
			return vm.ExecInst(ex.M, c, &s.inst, next)
		case execBound:
			// LOOP_UPDATE_BOUND: the exit compare tests the thread's
			// chunk bound instead of the original loop bound (per-thread
			// code caches let every thread see its own bound).
			c.Cycles += in.Op.Cycles()
			c.Insts++
			iv := int64(c.Reg(s.bound.IVReg))
			bound := int64(rec.bound)
			c.ZF, c.LF = iv == bound, iv < bound
			return next, nil
		}
	}
	_, next, err := vm.ExecRun(ex.M, c, ins, pc)
	return next, err
}

// runHandler executes one pre-instruction rule handler. in is the
// instruction the rule is attached to and addr its address.
func (ex *Executor) runHandler(t *jrt.Thread, rec *threadRec, in *guest.Inst, addr uint64, h *handler) (*redirect, error) {
	r := &h.rule
	switch r.ID {
	case rules.PROF_LOOP_ITER:
		first := !ex.Cov.IsActive(int(r.LoopID))
		ex.Cov.EnterIter(int(r.LoopID))
		ex.Dep.EnterIter(int(r.LoopID), first)
	case rules.PROF_LOOP_FINISH:
		ex.Cov.Finish(int(r.LoopID))
	case rules.PROF_MEM_ACCESS:
		if in.Op.HasMem() {
			ex.Dep.Record(int(r.LoopID), t.Ctx.EffAddr(in.M), in.AccessWidth(), in.WritesMem())
		}

	case rules.THREAD_SCHEDULE, rules.THREAD_YIELD:
		// Pool transitions are modelled inside the LOOP_INIT/FINISH
		// handlers; the rules themselves cost nothing extra.

	case rules.LOOP_INIT:
		if ex.loop == nil && t.ID == 0 && !h.loop.seq {
			rd, err := ex.runParallelLoop(t, r, h.loop)
			// Sequential fallback: latch so the handler does not re-fire
			// on every header execution of this invocation.
			h.loop.seq = err == nil && rd == nil
			return rd, err
		}
	case rules.LOOP_FINISH:
		// Reached sequentially (fallback path): release the latch so
		// the next invocation re-attempts parallelisation.
		if ex.loop == nil {
			h.loop.seq = false
		}

	case rules.MEM_BOUNDS_CHECK:
		// Evaluated inside runParallelLoop; standalone occurrence (e.g.
		// sequential fallback path) costs nothing.

	case rules.TX_START:
		if ex.specSet != nil {
			// See ErrScanSyscall: speculation needs the round-robin
			// commit order.
			return nil, ErrScanTx
		}
		if ex.loop != nil && rec.tx == nil && !rec.suppressTx {
			cp := stm.Checkpoint{GPR: t.Ctx.GPR, ZF: t.Ctx.ZF, LF: t.Ctx.LF, PC: addr}
			if rec.tx, rec.txSpare = rec.txSpare, nil; rec.tx != nil {
				rec.tx.Reset(ex.M.Mem, cp)
			} else {
				rec.tx = stm.Begin(ex.M.Mem, cp)
			}
			t.Ctx.Bus = rec.tx
			t.Ctx.Cycles += ex.Cfg.Cost.TxStart
			ex.Stats.TxStarted++
		}
	case rules.TX_FINISH:
		if rec.tx != nil {
			return ex.finishTx(t, rec)
		}
		// Non-speculative re-execution completed.
		rec.suppressTx = false

	case rules.MEM_SPILL_REG, rules.MEM_RECOVER_REG:
		// Register stealing is unnecessary in this DBM: handlers access
		// thread state directly rather than borrowing registers.
	}
	return nil, nil
}

// finishTx validates and commits (or aborts) thread t's transaction
// (TX_FINISH handler, figure 5).
func (ex *Executor) finishTx(t *jrt.Thread, rec *threadRec) (*redirect, error) {
	c, tx := t.Ctx, rec.tx
	rec.tx, rec.txSpare = nil, tx
	c.Bus = rec.view
	c.Cycles += int64(tx.ReadSetSize()) * ex.Cfg.Cost.TxValidatePerWord
	ex.Stats.SpecReads += tx.NumReads
	ex.Stats.SpecWrites += tx.NumWrites
	if tx.Validate() {
		c.Cycles += int64(tx.WriteSetSize()) * ex.Cfg.Cost.TxCommitPerWord
		tx.Commit()
		ex.Stats.TxCommits++
		return nil, nil
	}
	// Abort: roll back to the checkpoint and re-execute. The retry runs
	// non-speculatively, which is safe because the scheduler only steps
	// an aborted thread once it is the oldest (see parallel.go).
	cp := tx.Checkpoint()
	c.GPR = cp.GPR
	c.ZF, c.LF = cp.ZF, cp.LF
	rec.suppressTx = true
	t.Oldest = false // cleared; scheduler recomputes
	ex.Stats.TxAborts++
	return &redirect{pc: cp.PC}, nil
}

package dbm

import (
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
)

// execKind says how a site's instruction executes.
type execKind uint8

const (
	// execNormal: unmodified guest semantics.
	execNormal execKind = iota
	// execPrivatise: memory operand redirected to a TLS private slot.
	execPrivatise
	// execMainStack: stack read redirected to the main thread's stack.
	execMainStack
	// execBound: exit compare tests the thread's patched bound.
	execBound
)

// site is one instruction of a translated block that a surviving
// rewrite rule touches: handlers that run before it, a transformed
// access, or both. Everything a rule decided lives here; the
// instructions between two sites form a run that executes with no
// per-instruction test at all.
type site struct {
	// idx is the instruction's index in the block's insts.
	idx int
	// kind selects the execution transformation.
	kind execKind
	// loopID of the transforming rule (for kind != execNormal).
	loopID int32
	// pre are the rules whose handlers run before the instruction.
	pre []handler
	// bound carries LOOP_UPDATE_BOUND parameters.
	bound rules.UpdateBoundData
	// inst is the rewritten instruction for execPrivatise (the cache
	// owner's private slot, fixed at translation) and execMainStack
	// (absolute operand; its displacement is patched per execution,
	// which is safe because blocks are thread-private).
	inst guest.Inst
}

// handler is a rule whose handler runs at a site, with the record of the
// loop it names (nil if the schedule's parallelisation rules name none).
type handler struct {
	rule rules.Rule
	loop *loopRec
}

// tblock is one translated basic block in a thread's code cache.
type tblock struct {
	start uint64
	// insts is the block's decoded instructions: for executable code a
	// window onto the machine's linked decode cache (vm.Machine.ExeCode),
	// shared with every machine and thread and never written, for
	// library code a copy. sites are the ones a rule touches, ascending
	// by index; a site's rewritten instruction is its own copy.
	insts []guest.Inst
	sites []site
	// end is the fall-through address after the block.
	end uint64
	// hasSyscall marks blocks containing a SYSCALL: the speculative
	// engine refuses to execute them (syscalls are schedule-ordered),
	// turning any unsoundness in the eligibility scan into a loud
	// error instead of a data race.
	hasSyscall bool
	// scanLoop/scanOK memoise the host-parallel allowlist verdict for
	// this block (static per loop): scanOK is valid while scanLoop
	// matches the active loop, so steady-state dispatch skips the
	// scanned-set map lookup. Blocks are thread-private, so stamping
	// needs no synchronisation.
	scanLoop int32
	scanOK   bool
	// chargeMask caches, one bit per guest-thread owner, that this
	// block's translation cost has already been charged to that owner
	// (see chargeTranslation). Blocks are thread-private, so stamping
	// needs no synchronisation.
	chargeMask uint64
	// linkPC/linkBlk form a two-entry inline cache mapping this block's
	// observed successor addresses to their translated blocks (the
	// DBM's block linking): a taken/not-taken pair covers a conditional
	// branch, so steady-state dispatch skips the code-cache hash lookup.
	linkPC  [2]uint64
	linkBlk [2]*tblock
}

// maxBlockLen caps translated block length.
const maxBlockLen = 128

// blockFor returns thread tid's translated block at addr (rec is its
// record), translating and caching it on a miss (the just-in-time
// recompilation step of figure 1(b)). It only looks up, translates and
// links; what a translation costs, and whom, is chargeTranslation's
// business.
func (ex *Executor) blockFor(rec *threadRec, tid int, addr uint64) (*tblock, error) {
	// Block linking: the previous block's inline cache resolves its
	// common successors without touching the code-cache map.
	prev := rec.lastBlk
	if prev != nil {
		if prev.linkPC[0] == addr && prev.linkBlk[0] != nil {
			return prev.linkBlk[0], nil
		}
		if prev.linkPC[1] == addr && prev.linkBlk[1] != nil {
			return prev.linkBlk[1], nil
		}
	}
	b, ok := rec.cache[addr]
	if !ok {
		var err error
		b, err = ex.translate(rec, tid, addr)
		if err != nil {
			return nil, err
		}
		rec.cache[addr] = b
	}
	if prev != nil {
		if prev.linkBlk[0] == nil {
			prev.linkPC[0], prev.linkBlk[0] = addr, b
		} else {
			prev.linkPC[1], prev.linkBlk[1] = addr, b
		}
	}
	return b, nil
}

// chargeTranslation charges block b's translation cost to guest thread
// t.Owner the first time that thread dispatches b since the last
// modelled flush, wherever b's translation physically lives: t.Owner is
// t itself except inside a stolen piece, where a worker executes from
// its own cache on the owner's account. The totals are therefore the
// same whichever engine ran which region and whichever worker reached
// a block first. Translation stats accumulate on the thread and are
// folded into ex.Stats at deterministic points.
func (ex *Executor) chargeTranslation(t *jrt.Thread, b *tblock) {
	// chargeMask has one bit for each of the first 64 owners; owners
	// beyond it take the locked lookup on every block.
	var bit uint64
	if t.Owner < 64 {
		bit = 1 << uint(t.Owner)
		if b.chargeMask&bit != 0 {
			return
		}
	}
	ex.stealMu.Lock()
	owner := ex.threads[t.Owner]
	if !owner.charged[b.start] {
		owner.charged[b.start] = true
		if ex.specSet != nil {
			// Journal for recovery rollback (stealMu serialises appends
			// to the same owner's list from racing workers).
			owner.chargeUndo = append(owner.chargeUndo, b.start)
		}
		t.TransBlocks++
		t.TransInsts += int64(len(b.insts))
		cost := int64(len(b.insts)) * ex.Cfg.Cost.TransPerInst
		t.TransCycles += cost
		t.Ctx.Cycles += cost
	}
	ex.stealMu.Unlock()
	b.chargeMask |= bit
}

// translate decodes one basic block starting at addr for the code
// cache of thread tid (rec is its record, whose slab the block comes
// from) and applies the rewrite rules found in the schedule hash table
// (figure 2(b)): an instruction a surviving rule touches becomes a
// site, the rest stay plain members of insts.
func (ex *Executor) translate(rec *threadRec, tid int, addr uint64) (*tblock, error) {
	b := rec.newBlock()
	b.start, b.scanLoop = addr, -1
	var buf [maxBlockLen]guest.Inst
	n := 0
	a := addr
	for n < maxBlockLen {
		in, err := ex.M.FetchInst(a)
		if err != nil {
			if n > 0 {
				// Lazy decoding: stop at the first undecodable byte;
				// execution never falls through here (e.g. an exit
				// syscall precedes it).
				break
			}
			return nil, err
		}
		if in.Op == guest.SYSCALL {
			b.hasSyscall = true
		}
		if rs := ex.Ix.At(a); len(rs) > 0 {
			s := site{idx: n}
			for _, r := range rs {
				ex.applyRule(&s, tid, &in, r)
			}
			if s.kind != execNormal || len(s.pre) > 0 {
				b.sites = append(b.sites, s)
			}
		}
		buf[n] = in
		n++
		a += guest.InstSize
		if in.Op.IsBlockEnd() {
			break
		}
		// A rule on the next address that begins a region (LOOP_INIT,
		// LOOP_FINISH, profiling) must sit at a block head so its
		// handler runs exactly when control reaches it; end the block
		// early. This mirrors how a DBM splits blocks at instrumented
		// addresses.
		if ex.Ix.Has(a) {
			break
		}
	}
	b.end = a
	// Executable code is a window onto the machine's decode cache; only
	// library code is copied out of the buffer.
	var ok bool
	if b.insts, ok = ex.M.ExeCode(addr, n); !ok {
		b.insts = make([]guest.Inst, n)
		copy(b.insts, buf[:n])
	}
	return b, nil
}

// absolute returns in with its memory operand replaced by the absolute
// address addr.
func absolute(in *guest.Inst, addr uint64) guest.Inst {
	out := *in
	out.M = guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1, Disp: int64(addr)}
	return out
}

// applyRule is the rewrite-rule interpreter: each rule ID has a handler
// that transforms the instruction in at site s of thread tid's cache
// (figure 2(b)'s handler table). Rules are applied in schedule order; a
// rule the configuration filters out leaves the site untouched.
func (ex *Executor) applyRule(s *site, tid int, in *guest.Inst, r rules.Rule) {
	switch r.ID {
	case rules.MEM_PRIVATISE:
		if !ex.Cfg.Parallel {
			return
		}
		// "Re-encoded into a direct memory access to a specific private
		// storage location": the slot address is fixed for this cache.
		s.kind = execPrivatise
		s.inst = absolute(in, jrt.PrivAddr(tid, r.Data.(rules.MemPrivatiseData).Slot))
		s.loopID = r.LoopID
	case rules.MEM_MAIN_STACK:
		if !ex.Cfg.Parallel {
			return
		}
		s.kind = execMainStack
		s.inst = absolute(in, 0)
		s.loopID = r.LoopID
	case rules.LOOP_UPDATE_BOUND:
		if !ex.Cfg.Parallel {
			return
		}
		s.kind = execBound
		s.bound = r.Data.(rules.UpdateBoundData)
		s.loopID = r.LoopID
	case rules.PROF_LOOP_ITER, rules.PROF_LOOP_FINISH, rules.PROF_MEM_ACCESS,
		rules.PROF_LOOP_START:
		if ex.Cfg.Profile {
			s.pre = append(s.pre, handler{rule: r})
		}
	case rules.PROF_EXCALL_START, rules.PROF_EXCALL_FINISH:
		// Older schedule files carry them, but nothing reads an
		// external-call profile, so they make no site.
	case rules.MEM_BOUNDS_CHECK, rules.THREAD_SCHEDULE, rules.THREAD_YIELD,
		rules.LOOP_INIT, rules.LOOP_FINISH, rules.TX_START, rules.TX_FINISH,
		rules.MEM_SPILL_REG, rules.MEM_RECOVER_REG:
		if ex.Cfg.Parallel {
			s.pre = append(s.pre, handler{rule: r, loop: ex.loops[r.LoopID]})
		}
	}
}

// flushCaches models the paper's code-cache flush when a failed runtime
// check forces the original sequential code to be reloaded.
func (ex *Executor) flushCaches() {
	for _, rec := range ex.threads {
		rec.reset(true)
	}
	ex.Stats.CacheFlushes++
}

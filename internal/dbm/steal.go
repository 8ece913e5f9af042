package dbm

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/rules"
)

// Speculative region execution: the one engine that runs a
// scan-eligible region (hostpar.go) on host goroutines.
//
// The region's static chunks (jrt.PartitionChunked) are subdivided
// into `factor` pieces per guest thread and run by one host worker per
// guest thread from a shared set of per-worker deques:
//
//   - factor 1 is plain static chunking: jrt.PartitionStealing yields
//     exactly the PartitionChunked chunks, worker w runs guest thread
//     w's chunk from the loop head to its chunk exit on w's own stack
//     and TLS, and nothing is stolen. Every loop shape and every
//     reduction operator runs here.
//   - factor jrt.StealFactor adds work stealing. Static equal chunking
//     hands every guest thread the same number of iterations, but
//     iterations need not cost the same: a data-dependent branch or a
//     library call can make one chunk several times more expensive
//     than its siblings, and the cheap workers idle while the
//     expensive one finishes. With several pieces per thread, idle
//     workers steal pieces from their siblings' deques.
//
// The determinism contract is hostpar.go's, and stronger: simulated
// results must be bit-identical to factor 1 (and hence to the
// round-robin engine) at any factor and any GOMAXPROCS. Subdivision
// respects it because every piece's outcome is a pure function of its
// iteration range:
//
//   - Registers: a piece's context starts from the loop-entry
//     snapshot with its induction set to the piece base — exactly
//     how a static chunk starts, just at a finer grain. Flags and
//     live-outs come from the final iteration, which lives in the
//     owner's last piece whichever worker runs it.
//   - Cycles: dispatch and instruction costs are additive over
//     iterations, so summing a chunk's pieces equals running it
//     whole. Translation is charged to a piece's owner the first
//     time that guest thread dispatches the block since the last
//     modelled flush (chargeTranslation) — the rule every execution
//     mode charges by — whichever worker's cache holds the translation.
//   - Reductions: an owner's first partial is taken verbatim and the
//     rest are merged into it in ascending iteration order. Integer
//     ADD is associative, so the merged value matches the chunk's
//     sequentially accumulated partial bit for bit; any other
//     operator would be perturbed by the reassociation, so those
//     loops run at factor 1 (stealFactor), where the single partial
//     is never re-merged (0.0 + -0.0 and NaN payloads are not
//     bit-preserving even against the identity).
//   - Memory: eligibility (hostParEligible) already proves iterations
//     write disjoint words, so shared memory ends identical. Worker
//     stacks and TLS scratch above vm.DataHashLimit depend on which
//     worker ran which piece: at factor 1 that is always the owner, so
//     the full-image MemHash matches round-robin too; under stealing
//     they are invisible to DataHash (the verification contract) and
//     to every figure, but they make MemHash schedule-dependent — the
//     one simulated field work stealing does not pin.
//
// The folded result is written back into the per-owner thread
// structures, so LOOP_FINISH (reduction merge, live-outs, privatised
// copy-back) runs the same code as the round-robin engine.

// stealFactor returns the number of pieces each guest thread's static
// chunk is subdivided into for an eligible region of this loop:
// jrt.StealFactor when work stealing is on and the loop can be
// subdivided exactly, 1 (static chunks, no theft) otherwise.
func (ex *Executor) stealFactor(loopID int32, ld rules.LoopInitData) int {
	if !ex.Cfg.WorkStealing {
		return 1
	}
	// The interior-piece discard accounting in runStealWorker is exact
	// only for top-tested, single-exit loops: the exit test must sit at
	// the loop head so the discarded failing check is the same block
	// the next piece re-executes (and charges, if ever) on entry, and
	// the only way out of a piece must be that patched bound. Any other
	// shape keeps static chunks.
	if ex.boundData[loopID].CmpAddr != ld.LoopStart || len(ex.exitTargets[loopID]) != 1 {
		return 1
	}
	for _, red := range ld.Reductions {
		if red.Op != guest.ADD {
			return 1
		}
	}
	return jrt.StealFactor
}

// stealDeques is the shared work pool: one deque of piece indices per
// worker, seeded with the worker's own static chunk's pieces. Workers
// take their own work front-to-back (ascending iterations, best
// locality) and, when the region is subdivided, steal from victims
// back-to-front.
type stealDeques struct {
	mu     sync.Mutex
	queues [][]int
	// steal is false at one piece per thread: a worker whose own queue
	// is empty must not run a sibling's whole chunk on its own stack
	// and TLS.
	steal bool
}

func newStealDeques(workers int, chunks []jrt.StealChunk, steal bool) *stealDeques {
	d := &stealDeques{queues: make([][]int, workers), steal: steal}
	for i, sc := range chunks {
		d.queues[sc.Owner] = append(d.queues[sc.Owner], i)
	}
	return d
}

// next returns the next piece index for worker w: its own front, or,
// when stealing, the back of the first non-empty victim scanning
// round-robin from w+1. ok=false means no work remains for w.
func (d *stealDeques) next(w int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q := d.queues[w]; len(q) > 0 {
		idx := q[0]
		d.queues[w] = q[1:]
		return idx, true
	}
	if !d.steal {
		return 0, false
	}
	n := len(d.queues)
	for off := 1; off < n; off++ {
		v := (w + off) % n
		if q := d.queues[v]; len(q) > 0 {
			idx := q[len(q)-1]
			d.queues[v] = q[:len(q)-1]
			return idx, true
		}
	}
	return 0, false
}

// stealResult is one piece's folded outcome, written once by the
// worker that executed it.
type stealResult struct {
	cycles, insts, steps              int64
	transBlocks, transInsts, transCyc int64
	// red[j] is the partial for ld.Reductions[j], accumulated from the
	// reduction identity over this piece's iterations.
	red []uint64
}

// runRegionSpeculative executes the region on host goroutines over
// factor pieces per guest thread and folds the results back into the
// per-owner threads, so the shared LOOP_FINISH path (parallel.go) sees
// exactly what the round-robin engine would have produced.
func (ex *Executor) runRegionSpeculative(loopID int32, threads []*jrt.Thread, lc *jrt.LoopCtx, ubd rules.UpdateBoundData, entry func(guest.Reg) uint64, ivInit []int64, n int64, factor int, scanned map[uint64]bool) error {
	ld := lc.Init
	chunks := jrt.PartitionStealing(n, ex.Cfg.Threads, factor)
	if len(chunks) == 0 {
		return nil
	}
	// Deterministic per-piece bounds, evaluated on the main thread so
	// workers never touch the main context.
	bounds := make([]uint64, len(chunks))
	for i, sc := range chunks {
		bv, err := jrt.PatchedBound(ubd, entry, sc.Hi)
		if err != nil {
			return err
		}
		bounds[i] = bv
	}
	// ownerLast[o] is the index of owner o's final piece (-1 if the
	// owner's chunk is empty): the only pieces whose failing exit check
	// a whole chunk also executes — interior pieces discard theirs (see
	// runStealWorker). The last entry overall holds the loop's final
	// iteration.
	ownerLast := make([]int, len(threads))
	for o := range ownerLast {
		ownerLast[o] = -1
	}
	for i, sc := range chunks {
		ownerLast[sc.Owner] = i
	}
	final := len(chunks) - 1

	results := make([]stealResult, len(chunks))
	// privEnd[slot] snapshots the privatised cells as written by the
	// loop's final iteration, read from the executing worker's TLS the
	// moment the final piece completes.
	privEnd := make(map[int32][]byte, len(lc.PrivSlots))

	// One region-wide block budget shared by all workers, matching the
	// round-robin engine's single per-block guard exactly, so a runaway
	// region trips after the same MaxSteps total under either engine.
	var budget atomic.Int64
	budget.Store(ex.Cfg.MaxSteps)
	if ex.inj.Fire(faultinject.BudgetExhaust) {
		// Forced budget exhaustion: every worker trips the runaway
		// backstop on its first block.
		budget.Store(0)
	}
	// failed cancels the siblings of a failing worker: any error sends
	// the whole region to recovery, so their remaining work is wasted.
	// Which workers record an error can depend on host scheduling (a
	// sibling may finish or notice the flag first); the region's
	// success/failure never does, and the round-robin re-execution —
	// not the specific message — is what determines the run's outcome.
	var failed atomic.Bool
	errs := make([]error, len(threads))

	ex.specSet = scanned
	defer func() { ex.specSet = nil }()

	deques := newStealDeques(ex.Cfg.Threads, chunks, factor > 1)
	if ex.workerThreads == nil {
		ex.workerThreads = ex.newThreadSet()
	}
	var wg sync.WaitGroup
	for w := 0; w < ex.Cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Contain worker panics: a bug (or injected fault) in one
			// region must fail that region, never the process.
			defer func() {
				if p := recover(); p != nil {
					failed.Store(true)
					errs[w] = panicErr(loopID, w, p, debug.Stack())
				}
			}()
			errs[w] = ex.runStealWorker(w, loopID, lc, chunks, bounds, ivInit, ownerLast, deques, results, &budget, &failed, func(idx int, th *jrt.Thread) {
				if o := chunks[idx].Owner; idx == ownerLast[o] {
					// The owner's ending registers and flags (single
					// writer: whichever worker runs its final piece).
					end := threads[o].Ctx
					end.GPR = th.Ctx.GPR
					end.ZF, end.LF = th.Ctx.ZF, th.Ctx.LF
				}
				if idx == final {
					for slot, ps := range lc.PrivSlots {
						buf := make([]byte, ps.Size)
						ex.M.Mem.ReadInto(jrt.PrivAddr(w, slot), buf)
						privEnd[slot] = buf
					}
				}
			})
		}(w)
	}
	wg.Wait()
	// Report the lowest-ID recorded error.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Fold piece results into the per-owner threads in deterministic
	// ascending-iteration order. An owner's first partial is taken
	// verbatim — merging it into the identity would not preserve every
	// bit pattern (0.0 + -0.0, NaN payloads) — and only a subdivided
	// (integer ADD) chunk has further partials to merge into it.
	acc := make([][]uint64, len(threads))
	for i := range chunks {
		o := chunks[i].Owner
		th := threads[o]
		rec := &results[i]
		th.Ctx.Cycles += rec.cycles
		th.Ctx.Insts += rec.insts
		th.Steps += rec.steps
		th.TransBlocks += rec.transBlocks
		th.TransInsts += rec.transInsts
		th.TransCycles += rec.transCyc
		if acc[o] == nil {
			acc[o] = rec.red
			continue
		}
		for j, red := range ld.Reductions {
			acc[o][j] = jrt.MergeReduction(red.Op, acc[o][j], rec.red[j])
		}
	}
	for o, th := range threads {
		if ownerLast[o] < 0 {
			continue // empty chunk: keep the as-initialised context
		}
		for j, red := range ld.Reductions {
			th.Ctx.SetReg(red.Reg, acc[o][j])
		}
		th.State = jrt.StateDone
	}
	// Re-home the final iteration's privatised cells to the owning
	// thread's TLS so the shared copy-back in LOOP_FINISH (which reads
	// lastNonEmpty's slots) sees the deterministic values.
	if len(privEnd) > 0 {
		last := lastNonEmpty(threads)
		for slot, buf := range privEnd {
			ex.M.Mem.WriteBytes(jrt.PrivAddr(last.ID, slot), buf)
		}
	}
	return nil
}

// runStealWorker drives worker w: take (or steal) pieces until the
// pool holds none for it, running each from the loop head to its
// patched-bound exit on the worker's own context (ex.workerThreads[w]),
// which is re-initialised from the loop-entry snapshot per piece.
func (ex *Executor) runStealWorker(w int, loopID int32, lc *jrt.LoopCtx, chunks []jrt.StealChunk, bounds []uint64, ivInit []int64, ownerLast []int, deques *stealDeques, results []stealResult, budget *atomic.Int64, failed *atomic.Bool, done func(idx int, th *jrt.Thread)) error {
	ld := lc.Init
	th := ex.workerThreads[w]
	ctx := th.Ctx
	*th = jrt.Thread{ID: w, Ctx: ctx, State: jrt.StateRunning}
	for {
		if failed.Load() {
			return nil
		}
		idx, ok := deques.next(w)
		if !ok {
			return nil
		}
		sc := chunks[idx]
		th.Owner = sc.Owner
		ex.initRegionCtx(ctx, w, lc, ivInit, sc.Lo)
		lc.BoundValue[w] = bounds[idx]

		for {
			if failed.Load() {
				return nil
			}
			if ex.inj.Fire(faultinject.WorkerPanic) {
				panic("faultinject: forced worker panic")
			}
			if ex.inj.Fire(faultinject.Stall) {
				// Forced stall: report the region wedged, as a livelocked
				// worker eventually would.
				failed.Store(true)
				return regionErr(loopID, w, ErrRegionStuck)
			}
			if budget.Add(-1) < 0 {
				if failed.Load() {
					return nil // a failing sibling may have drained the budget
				}
				failed.Store(true)
				return regionErr(loopID, w, ErrRegionStuck)
			}
			preCycles, preInsts, preSteps := ctx.Cycles, ctx.Insts, th.Steps
			if err := ex.stepBlock(th); err != nil {
				failed.Store(true)
				return regionErr(loopID, w, err)
			}
			if lc.IsExit(ctx.PC) {
				if idx != ownerLast[sc.Owner] {
					// Interior piece: its failing exit check is an artefact
					// of the subdivision — a whole chunk flows straight
					// from this iteration into the next piece's first,
					// executing the head check once (which the next piece
					// re-executes as its entry check). Discard the extra
					// execution — and refund its budget charge — so folded
					// costs and the runaway threshold match static
					// chunking exactly. The discarded block is the loop
					// head (stealFactor pins the shape), which this
					// piece already executed at entry, so no translation
					// charge can hide in the discarded delta.
					ctx.Cycles, ctx.Insts, th.Steps = preCycles, preInsts, preSteps
					budget.Add(1)
				}
				break
			}
		}
		rec := &results[idx]
		rec.cycles, rec.insts = ctx.Cycles, ctx.Insts
		rec.steps = th.Steps
		rec.transBlocks, rec.transInsts, rec.transCyc = th.TransBlocks, th.TransInsts, th.TransCycles
		th.Steps, th.TransBlocks, th.TransInsts, th.TransCycles = 0, 0, 0, 0
		rec.red = make([]uint64, len(ld.Reductions))
		for j, red := range ld.Reductions {
			rec.red[j] = ctx.Reg(red.Reg)
		}
		done(idx, th)
	}
}

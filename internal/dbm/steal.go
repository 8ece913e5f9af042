package dbm

import (
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"

	"janus/internal/faultinject"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/vm"
)

// Speculative region execution: the one engine that runs a
// scan-eligible region (hostpar.go) on host goroutines.
//
// The region's static chunks (jrt.PartitionChunked) are subdivided
// into `factor` pieces per guest thread and run by one host worker per
// guest thread from a shared set of per-worker deques. Factor 1 is
// plain static chunking: worker w runs guest thread w's chunk on w's own
// stack and TLS and nothing is stolen; every loop shape and reduction
// operator runs here. Factor jrt.StealFactor lets idle workers steal
// pieces from siblings whose iterations turned out more expensive.
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
//   - Blocks: a region fails iff it dispatches more than MaxSteps
//     blocks, the round-robin engine's guard. A worker counts its blocks
//     in its own record (threadRec.blocks), an interior piece's discarded
//     exit check left out, so the join's sum is the static chunks' count.
//
// The folded result is written back into the per-owner region threads,
// so LOOP_FINISH (reduction merge, live-outs, privatised copy-back)
// runs the same code as the round-robin engine. Everything a worker
// writes per block — its thread and context, dispatch anchor, block
// count, memory view, code cache — hangs off its own threadRec: no word
// written per block is shared between guest threads.

// stealFactor returns the number of pieces each guest thread's static
// chunk is subdivided into for an eligible region of loop l:
// jrt.StealFactor when work stealing is on and the loop can be
// subdivided exactly, 1 (static chunks, no theft) otherwise.
func (ex *Executor) stealFactor(l *loopRec) int {
	if !ex.Cfg.WorkStealing {
		return 1
	}
	// The interior-piece discard accounting in runStealWorker is exact
	// only for top-tested, single-exit loops: the exit test must sit at
	// the loop head so the discarded failing check is the same block
	// the next piece re-executes (and charges, if ever) on entry, and
	// the only way out of a piece must be that patched bound. Any other
	// shape keeps static chunks.
	if l.bound.CmpAddr != l.lc.Init.LoopStart || len(l.exits) != 1 {
		return 1
	}
	for _, red := range l.lc.Init.Reductions {
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
	mu sync.Mutex
	// queues[w] is the half-open range of piece indices worker w's deque
	// still holds (pieces are owner-major, so an owner's are contiguous).
	queues [][2]int
	// steal is false at one piece per thread: a worker whose own queue
	// is empty must not run a sibling's whole chunk on its own stack
	// and TLS.
	steal bool
}

// init seeds the pool with chunks, owner by owner.
func (d *stealDeques) init(workers int, chunks []jrt.StealChunk, steal bool) {
	d.queues, d.steal = append(d.queues[:0], make([][2]int, workers)...), steal
	for i, sc := range chunks {
		if q := &d.queues[sc.Owner]; q[1] == 0 {
			*q = [2]int{i, i + 1}
		} else {
			q[1] = i + 1
		}
	}
}

// next returns the next piece index for worker w: its own front, or,
// when stealing, the back of the first non-empty victim scanning
// round-robin from w+1. ok=false means no work remains for w.
func (d *stealDeques) next(w int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q := &d.queues[w]; q[0] < q[1] {
		q[0]++
		return q[0] - 1, true
	}
	n := len(d.queues)
	for off := 1; d.steal && off < n; off++ {
		if q := &d.queues[(w+off)%n]; q[0] < q[1] {
			q[1]--
			return q[1], true
		}
	}
	return 0, false
}

// stealResult is one piece's folded outcome, written once by the
// worker that executed it.
type stealResult struct {
	cycles, insts, steps              int64
	transBlocks, transInsts, transCyc int64
	// red[j] is the partial for the loop's j-th reduction, accumulated
	// from the reduction identity over this piece's iterations.
	red []uint64
}

// budgetQuantum is how many blocks a worker dispatches between two
// reconciliations of its own count with the region-wide one.
const budgetQuantum = 1 << 10

// specRegion is the speculative engine's scratch for one region of a
// loop. The orchestrating goroutine re-initialises it in full before
// spawning the workers (init); while they run, a worker writes its own
// errs element and the results of the pieces it runs, takes deques.mu
// once per piece and adds to used once per budgetQuantum blocks —
// nothing here is written per block, so failed, which every worker
// reads per block, stays in every core's cache until a worker fails.
type specRegion struct {
	// failed cancels the siblings of a failing worker: any error sends
	// the whole region to recovery, so their remaining work is wasted.
	// Which workers record an error can depend on host scheduling; the
	// region's success or failure never does, and the round-robin
	// re-execution, not the message, determines the run's outcome.
	failed atomic.Bool
	// limit is the region's block budget (Config.MaxSteps, the
	// round-robin engine's guard): the region fails iff its workers
	// dispatch more than limit blocks between them. A worker counts its
	// blocks in its own record, adds them to used a quantum at a time —
	// which stops a runaway region within a quantum per worker of the
	// limit — and the join adds up the exact counts.
	limit int64
	used  atomic.Int64
	// chunks are the region's pieces in ascending iteration order and
	// bounds their patched bounds, evaluated on the main thread so
	// workers never touch the main context.
	chunks []jrt.StealChunk
	bounds []uint64
	// ownerLast[o] is the index of owner o's final piece (-1 if the
	// owner's chunk is empty): the only pieces whose failing exit check
	// a whole chunk also executes — interior pieces discard theirs (see
	// runStealWorker). The last piece overall holds the loop's final
	// iteration.
	ownerLast []int
	results   []stealResult
	errs      []error
	// acc[o] accumulates owner o's reduction partials at the fold.
	acc    [][]uint64
	deques stealDeques
	// privEnd[slot] snapshots the privatised cells as written by the
	// loop's final iteration, read from the executing worker's TLS the
	// moment the final piece completes.
	privEnd map[int32][]byte
}

// init sets the scratch up for a region of loop l over factor pieces
// per guest thread, every field assigned.
func (s *specRegion) init(l *loopRec, threads int, limit int64, entry func(guest.Reg) uint64, factor int) error {
	s.failed.Store(false)
	s.limit = limit
	s.used.Store(0)
	s.chunks = jrt.PartitionStealing(l.lc.Trip, threads, factor)
	s.bounds = s.bounds[:0]
	s.ownerLast = s.ownerLast[:0]
	for o := 0; o < threads; o++ {
		s.ownerLast = append(s.ownerLast, -1)
	}
	for i, sc := range s.chunks {
		bv, err := jrt.PatchedBound(l.bound, entry, sc.Hi)
		if err != nil {
			return err
		}
		s.bounds = append(s.bounds, bv)
		s.ownerLast[sc.Owner] = i
	}
	s.results = slices.Grow(s.results[:0], len(s.chunks))[:len(s.chunks)]
	clear(s.results)
	s.errs = append(s.errs[:0], make([]error, threads)...)
	s.acc = append(s.acc[:0], make([][]uint64, threads)...)
	s.deques.init(threads, s.chunks, factor > 1)
	if s.privEnd == nil {
		s.privEnd = map[int32][]byte{}
	}
	clear(s.privEnd)
	return nil
}

// runRegionSpeculative executes loop l's region on host goroutines over
// factor pieces per guest thread and folds the results back into the
// per-owner region threads, so the shared LOOP_FINISH path (parallel.go)
// sees exactly what the round-robin engine would have produced.
func (ex *Executor) runRegionSpeculative(l *loopRec, entry func(guest.Reg) uint64, factor int, scanned map[uint64]bool) error {
	if l.spec == nil {
		l.spec = &specRegion{}
	}
	s := l.spec
	limit := ex.Cfg.MaxSteps
	if ex.inj.Fire(faultinject.BudgetExhaust) {
		// Forced budget exhaustion: every worker trips the runaway
		// backstop on its first block.
		limit = 0
	}
	if err := s.init(l, ex.Cfg.Threads, limit, entry, factor); err != nil {
		return err
	}
	if len(s.chunks) == 0 {
		return nil
	}

	ex.specSet = scanned
	defer func() { ex.specSet = nil }()

	var wg sync.WaitGroup
	for w := range ex.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contain worker panics: a bug (or injected fault) in one
			// region must fail that region, never the process.
			defer func() {
				if p := recover(); p != nil {
					s.failed.Store(true)
					s.errs[w] = panicErr(l.id, w, p, debug.Stack())
				}
			}()
			s.errs[w] = ex.runStealWorker(w, l)
		}()
	}
	wg.Wait()
	// Report the lowest-ID recorded error; failing that, hold the exact
	// block count to the budget.
	var blocks int64
	for w, err := range s.errs {
		if err != nil {
			return err
		}
		blocks += ex.threads[w].blocks
	}
	if blocks > s.limit {
		return regionErr(l.id, -1, ErrRegionStuck)
	}

	// Fold piece results into the per-owner threads in deterministic
	// ascending-iteration order. An owner's first partial is taken
	// verbatim — merging it into the identity would not preserve every
	// bit pattern (0.0 + -0.0, NaN payloads) — and only a subdivided
	// (integer ADD) chunk has further partials to merge into it.
	reds := l.lc.Init.Reductions
	for i, sc := range s.chunks {
		o := sc.Owner
		th := &ex.threads[o].region
		rec := &s.results[i]
		th.Ctx.Cycles += rec.cycles
		th.Ctx.Insts += rec.insts
		th.Steps += rec.steps
		th.TransBlocks += rec.transBlocks
		th.TransInsts += rec.transInsts
		th.TransCycles += rec.transCyc
		if s.acc[o] == nil {
			s.acc[o] = rec.red
			continue
		}
		for j, red := range reds {
			s.acc[o][j] = jrt.MergeReduction(red.Op, s.acc[o][j], rec.red[j])
		}
	}
	for o, rec := range ex.threads {
		if s.ownerLast[o] < 0 {
			continue // empty chunk: keep the as-initialised context
		}
		for j, red := range reds {
			rec.region.Ctx.SetReg(red.Reg, s.acc[o][j])
		}
		rec.region.State = jrt.StateDone
	}
	// Re-home the final iteration's privatised cells to the owning
	// thread's TLS so the shared copy-back in LOOP_FINISH (which reads
	// lastNonEmpty's slots) sees the deterministic values.
	if len(s.privEnd) > 0 {
		last := ex.lastNonEmpty()
		for slot, buf := range s.privEnd {
			ex.M.Mem.WriteBytes(jrt.PrivAddr(last.ID, slot), buf)
		}
	}
	return nil
}

// runStealWorker drives worker w of loop l's region: take (or steal)
// pieces until the pool holds none for it, running each from the loop
// head to its patched-bound exit on the worker's own thread and context
// (its record's), re-initialised from the loop-entry snapshot per piece.
func (ex *Executor) runStealWorker(w int, l *loopRec) error {
	s, lc, rec := l.spec, l.lc, ex.threads[w]
	th := &rec.worker
	if th.Ctx == nil {
		th.Ctx = &vm.Context{}
	}
	ctx := th.Ctx
	*th = jrt.Thread{ID: w, Ctx: ctx, State: jrt.StateRunning}
	rec.blocks = 0
	for {
		if s.failed.Load() {
			return nil
		}
		idx, ok := s.deques.next(w)
		if !ok {
			return nil
		}
		sc := s.chunks[idx]
		last := idx == s.ownerLast[sc.Owner]
		th.Owner = sc.Owner
		ex.initRegionCtx(ctx, w, l, sc.Lo)
		rec.bound = s.bounds[idx]

		for {
			if s.failed.Load() {
				return nil
			}
			if ex.inj.Fire(faultinject.WorkerPanic) {
				panic("faultinject: forced worker panic")
			}
			if ex.inj.Fire(faultinject.Stall) {
				// Forced stall: report the region wedged, as a livelocked
				// worker eventually would.
				s.failed.Store(true)
				return regionErr(l.id, w, ErrRegionStuck)
			}
			preCycles, preInsts, preSteps := ctx.Cycles, ctx.Insts, th.Steps
			if err := ex.stepBlock(th); err != nil {
				s.failed.Store(true)
				return regionErr(l.id, w, err)
			}
			exit := lc.IsExit(ctx.PC)
			if exit && !last {
				// Interior piece: its failing exit check is an artefact
				// of the subdivision — a whole chunk flows straight
				// from this iteration into the next piece's first,
				// executing the head check once (which the next piece
				// re-executes as its entry check). Discard the extra
				// execution — and leave it out of the block count — so
				// folded costs and the runaway threshold match static
				// chunking exactly. The discarded block is the loop
				// head (stealFactor pins the shape), which this
				// piece already executed at entry, so no translation
				// charge can hide in the discarded delta.
				ctx.Cycles, ctx.Insts, th.Steps = preCycles, preInsts, preSteps
				break
			}
			// The budget: this worker's own count, or what all of them
			// have published, is over the limit.
			rec.blocks++
			if rec.blocks > s.limit || (rec.blocks%budgetQuantum == 0 && s.used.Add(budgetQuantum) > s.limit) {
				s.failed.Store(true)
				return regionErr(l.id, w, ErrRegionStuck)
			}
			if exit {
				break
			}
		}
		res := &s.results[idx]
		res.cycles, res.insts = ctx.Cycles, ctx.Insts
		res.steps = th.Steps
		res.transBlocks, res.transInsts, res.transCyc = th.TransBlocks, th.TransInsts, th.TransCycles
		th.Steps, th.TransBlocks, th.TransInsts, th.TransCycles = 0, 0, 0, 0
		for _, red := range lc.Init.Reductions {
			res.red = append(res.red, ctx.Reg(red.Reg))
		}
		if last {
			// The owner's ending registers and flags (single writer:
			// whichever worker runs its final piece).
			end := ex.threads[sc.Owner].region.Ctx
			end.GPR = ctx.GPR
			end.ZF, end.LF = ctx.ZF, ctx.LF
		}
		if idx == len(s.chunks)-1 {
			for slot, ps := range lc.PrivSlots {
				buf := make([]byte, ps.Size)
				ex.M.Mem.ReadInto(jrt.PrivAddr(w, slot), buf)
				s.privEnd[slot] = buf
			}
		}
	}
}

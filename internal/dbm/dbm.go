// Package dbm is the Janus dynamic binary modifier: the DynamoRIO-like
// layer that translates basic blocks just-in-time into per-thread code
// caches, consults the rewrite-schedule hash table before caching, and
// invokes the rule handlers that transform the code (figure 2(b)). What
// the rules decide is decided at translation: a translated block is its
// decoded instructions, held once, plus an ordered list of sites — the
// instructions a surviving rule attaches a handler or a rewritten access
// to — and everything between two sites is a run that executes through
// vm.ExecRun with no per-instruction test. ExecRun is the one dispatch
// function: a site's instruction goes through it too (as itself, or as
// its rewritten copy through vm.ExecInst); it charges a run's cycles
// from a local flushed at a SYSCALL and at run end, and resolves the
// thread's memory bus (view or transaction) once per run. A block's
// translation is charged to guest thread t the first time t dispatches
// it since the last modelled flush, wherever the translation physically
// lives.
//
// Run-time state lives in two record types built once by New: a
// threadRec per guest thread and a loopRec per loop the schedule names.
// Thread records, with the blocks translated into them, are recycled
// from a closed executor to the next one (see threadRecs).
//
// Execution is deterministic and the elapsed time of a parallel region
// is always the maximum thread virtual-cycle clock plus orchestration
// overheads (see ARCHITECTURE.md). Two region engines produce that
// result:
//
//   - round-robin: guest threads stepped at basic-block granularity on
//     one goroutine. Fully general — the fixed schedule orders
//     speculative commits and syscalls.
//   - speculative (steal.go): one host goroutine per guest thread,
//     used when a static scan of the loop body proves the threads
//     cannot observe each other (see hostpar.go). Each thread's static
//     chunk is cut into a per-loop number of pieces — one, or
//     jrt.StealFactor when work stealing is on and the loop can be
//     subdivided exactly — that idle workers steal from a shared set
//     of deques; every piece folds back into its owning guest thread,
//     so the folded result is bit-identical at any factor. A failed
//     region is rolled back and re-executed round-robin (recover.go).
//
// Simulated results — virtual cycles, figures, data hashes — are
// bit-identical between the engines and independent of GOMAXPROCS;
// only host wall-clock differs. (The full-image MemHash additionally
// covers worker-private scratch, which under work stealing records
// host scheduling; DataHash, the verification contract, never does.)
package dbm

import (
	"fmt"
	"sync"

	"janus/internal/faultinject"
	"janus/internal/freelist"
	"janus/internal/guest"
	"janus/internal/jrt"
	"janus/internal/obj"
	"janus/internal/profiler"
	"janus/internal/rules"
	"janus/internal/stm"
	"janus/internal/vm"
)

// CostModel holds the virtual-cycle charges for DBM machinery. The
// defaults are tuned so the relative overheads match the paper's
// observations (≈6% average slowdown under the bare modifier, checks
// costing a few percent, speculation expensive per access).
type CostModel struct {
	// TransPerInst is charged once per instruction translated into a
	// code cache.
	TransPerInst int64
	// Dispatch is charged per basic-block entry (cache lookup + link).
	Dispatch int64
	// LoopInitBase/PerThread model LOOP_INIT (starting all threads).
	LoopInitBase      int64
	LoopInitPerThread int64
	// LoopFinishBase/PerThread model LOOP_FINISH (joining threads).
	LoopFinishBase      int64
	LoopFinishPerThread int64
	// CheckPerRange is charged per range pair in MEM_BOUNDS_CHECK.
	CheckPerRange int64
	// TxStart / TxPerAccess / TxValidatePerWord / TxCommitPerWord model
	// the software-transaction overheads.
	TxStart           int64
	TxPerAccess       int64
	TxValidatePerWord int64
	TxCommitPerWord   int64
}

// DefaultCost is the standard cost model.
func DefaultCost() CostModel {
	return CostModel{
		TransPerInst:        60,
		Dispatch:            1,
		LoopInitBase:        4000,
		LoopInitPerThread:   900,
		LoopFinishBase:      2000,
		LoopFinishPerThread: 400,
		CheckPerRange:       60,
		TxStart:             60,
		TxPerAccess:         6,
		TxValidatePerWord:   12,
		TxCommitPerWord:     8,
	}
}

// Config controls one DBM execution.
type Config struct {
	// Threads is the parallel thread count (>=1).
	Threads int
	// Parallel enables the parallelisation rule handlers.
	Parallel bool
	// Profile enables the profiling rule handlers.
	Profile bool
	// HostParallel runs eligible parallel regions on real host
	// goroutines (one per guest thread, the speculative engine in
	// steal.go) instead of stepping guest threads round-robin on one
	// goroutine. Virtual-cycle results are bit-identical either way —
	// eligibility is established by a static scan of the loop body (see
	// hostpar.go) — so this trades nothing but host wall-clock. Regions
	// the scan cannot prove safe (syscalls, indirect control flow,
	// speculation) fall back to the round-robin engine.
	HostParallel bool
	// WorkStealing sets the speculative engine's subdivision factor:
	// each guest thread's static chunk is cut into ~jrt.StealFactor
	// pieces that idle host workers steal from a shared set of deques,
	// balancing host wall-clock when per-iteration cost is uneven;
	// false means factor 1 — one piece per thread, nothing stolen —
	// in the same engine. Every piece's virtual-cycle cost is folded
	// back into the guest thread that owns it, so simulated results are
	// bit-identical at either factor (see steal.go); only host
	// wall-clock changes. Loops that cannot be subdivided exactly
	// (non-integer-ADD reductions, not top-tested, several exits) run
	// at factor 1 whatever this says.
	WorkStealing bool
	// MinIterPerThread is the profitability floor: loops with fewer
	// iterations per thread run sequentially.
	MinIterPerThread int64
	// MaxSteps bounds total executed instructions.
	MaxSteps int64
	// Cost is the virtual-cycle cost model.
	Cost CostModel
	// Inject, when non-nil, arms deterministic fault injection inside
	// speculative regions (see internal/faultinject); nil costs
	// nothing.
	Inject *faultinject.Plan
}

// DefaultConfig returns a ready-to-use configuration.
func DefaultConfig(threads int) Config {
	return Config{
		Threads:          threads,
		Parallel:         true,
		HostParallel:     true,
		WorkStealing:     true,
		MinIterPerThread: 4,
		MaxSteps:         vm.DefaultMaxSteps,
		Cost:             DefaultCost(),
	}
}

// Stats aggregates DBM counters for the evaluation figures.
type Stats struct {
	// Translation.
	TransBlocks int64
	TransInsts  int64
	TransCycles int64
	// Time breakdown (virtual cycles).
	ParCycles        int64
	InitFinishCycles int64
	CheckCycles      int64
	// Parallelisation events.
	Invocations int64
	ParRegions  int64
	// HostParRegions counts the regions that ran on host goroutines
	// (the remainder of ParRegions used the round-robin engine).
	HostParRegions int64
	// StealRegions counts the host-parallel regions that were
	// subdivided for work stealing (a subset of HostParRegions; the
	// rest ran at one piece per thread).
	StealRegions int64
	SeqFallbacks int64
	CacheFlushes int64
	// ParRecoveries counts speculative regions that failed, rolled back
	// and re-executed round-robin; DemotedLoops counts the distinct
	// loops latched onto the round-robin engine by those recoveries.
	// Both are folded on the orchestrating goroutine only, so they are
	// deterministic for a given injection plan.
	ParRecoveries int64
	DemotedLoops  int64
	// Runtime checks.
	ChecksRun    int64
	ChecksFailed int64
	// Speculation.
	TxStarted  int64
	TxCommits  int64
	TxAborts   int64
	SpecReads  int64
	SpecWrites int64
	SpecInsts  int64
}

// threadRec is everything the DBM keeps for one guest thread. Each record
// is its own allocation, and the words its thread writes per block lead
// it while the ones only a region boundary touches trail it, so no word
// written per block shares a cache line with another thread's.
type threadRec struct {
	// lastBlk is the block the thread executed last, the anchor for
	// block linking in blockFor.
	lastBlk *tblock
	// blocks counts the blocks the thread has dispatched as a worker of
	// the active speculative region (see specRegion.limit).
	blocks int64
	// bound is the patched compare bound of the chunk, or piece, the
	// thread is running.
	bound uint64
	// tx is the thread's open transaction; suppressTx marks the
	// non-speculative re-execution that follows an abort.
	tx         *stm.Tx
	suppressTx bool
	// view is the thread's private memory view (software TLB + last-leaf
	// cache) over the shared machine memory.
	view *vm.MemView
	// cache is the thread's private code cache: guest thread t on the
	// sequential and round-robin paths, host worker t inside a
	// speculative region, whichever owner's piece it is running.
	cache map[uint64]*tblock
	// worker is the speculative engine's per-worker thread (a worker runs
	// pieces of any owner's chunk on it and folds them into the owner's
	// region thread) and region the guest thread of a parallel region.
	// Their contexts are allocated at the first region that needs them
	// and re-initialised in full by every later one (initRegionCtx).
	worker, region jrt.Thread
	// charged is the translation ledger: a block is charged to the thread
	// the first time it dispatches it since the last modelled flush,
	// wherever its translation physically lives (see chargeTranslation).
	// chargeUndo journals the addresses first charged inside the active
	// speculative region, so a recovery can undo exactly those. Both are
	// guarded by Executor.stealMu while a speculative region runs.
	charged    map[uint64]bool
	chargeUndo []uint64
	// txSpare keeps a finished transaction for buffer reuse.
	txSpare *stm.Tx
	// slab holds every block translated into this record since New,
	// slab[:slabUsed], in translation order, then the empty ones an
	// earlier executor's Close left: translate takes the next one
	// before it allocates (newBlock).
	slab     []*tblock
	slabUsed int
}

// Thread records outlive their executor: Close empties each one and
// puts it on a process-wide free list, and New takes them from it. A
// record waiting there keeps its view, bound to nothing, its region and
// worker contexts, zeroed, its code-cache and charge maps, cleared, its
// journal's storage and its slab of zeroed blocks; nothing in it names
// the closed run's Memory, blocks or transactions.
const (
	// maxFreeThreads bounds the records a process keeps. A cache-off
	// janus-bench render peaks at 16 records on the list (8 at -jobs 1),
	// a pipeline_gen sweep at 8, so the bound is twice the render's
	// peak: steady renders allocate no record, and an idle process holds
	// no more than 32 records of under 58 KiB each (1.8 MiB).
	maxFreeThreads = 32
	// maxKeptBlocks caps what a record keeps: the blocks of its slab and
	// the entries of its ledger and journal. Of the 744 records a
	// cache-off render closes, 703 translated fewer than 64 blocks and
	// the most any translated is 214 (37 in a pipeline_gen sweep); a
	// record past the cap goes back without its slab, maps and journal,
	// whose size it set.
	maxKeptBlocks = 256
)

// threadRecs recycles thread records between executors (Close puts, New
// gets). It is touched only at set-up and at Close, never per block.
var threadRecs = freelist.New[threadRec](maxFreeThreads)

// ThreadStats reports how many thread records executors of this process
// have allocated fresh and how many they were handed recycled.
func ThreadStats() (fresh, reused int64) { return threadRecs.Stats() }

// takeThreadRec returns a record for a new executor over mem: a
// recycled one, already emptied by Close, or a new one.
func takeThreadRec(mem *vm.Memory) *threadRec {
	r := threadRecs.Get()
	if r.view == nil {
		r.view = mem.NewView()
	} else {
		r.view.Rebind(mem)
	}
	if r.cache == nil {
		r.cache, r.charged = map[uint64]*tblock{}, map[uint64]bool{}
	}
	return r
}

// release empties r for the free list (see threadRecs). Emptied here,
// not at reuse: a record left waiting with its view's TLB, a context's
// bus or a block's instruction window would keep the closed Memory and
// the data sections it maps reachable. A record past maxKeptBlocks
// drops its slab, maps and journal as well.
func (r *threadRec) release() {
	r.view.Rebind(nil)
	kept := threadRec{
		view:   r.view,
		worker: jrt.Thread{Ctx: zeroed(r.worker.Ctx)},
		region: jrt.Thread{Ctx: zeroed(r.region.Ctx)},
	}
	if r.slabUsed <= maxKeptBlocks && len(r.charged) <= maxKeptBlocks && cap(r.chargeUndo) <= maxKeptBlocks {
		for _, b := range r.slab[:r.slabUsed] {
			*b = tblock{}
		}
		clear(r.cache)
		clear(r.charged)
		kept.cache, kept.charged, kept.chargeUndo, kept.slab = r.cache, r.charged, r.chargeUndo[:0], r.slab
	}
	*r = kept
	threadRecs.Put(r)
}

// zeroed clears the context c points to, if any, and returns c.
func zeroed(c *vm.Context) *vm.Context {
	if c != nil {
		*c = vm.Context{}
	}
	return c
}

// newBlock returns an empty block for r's code cache: the next one in
// its slab, or a new one the slab keeps from now on.
func (r *threadRec) newBlock() *tblock {
	if r.slabUsed == len(r.slab) {
		r.slab = append(r.slab, &tblock{})
	}
	b := r.slab[r.slabUsed]
	r.slabUsed++
	return b
}

// reset drops the thread's code cache and dispatch anchor. A modelled
// flush also forgets every translation charge; a rollback forgets only
// those journaled since the region began (see recover.go for why the
// cache has to go with them, and why that costs no virtual time).
func (r *threadRec) reset(flush bool) {
	if flush {
		r.charged = map[uint64]bool{}
	}
	for _, addr := range r.chargeUndo {
		delete(r.charged, addr)
	}
	r.chargeUndo = r.chargeUndo[:0]
	r.cache = map[uint64]*tblock{}
	r.lastBlk = nil
}

// loopRec is everything the DBM keeps for one loop the schedule names.
type loopRec struct {
	id int32
	// From the schedule, fixed by New: the LOOP_FINISH addresses and the
	// smallest of them (the deterministic resume address), the first
	// LOOP_FINISH payload in schedule order, the LOOP_UPDATE_BOUND
	// payload, the MEM_PRIVATISE payloads by slot and the
	// MEM_BOUNDS_CHECK payloads by LOOP_INIT address.
	exits    map[uint64]bool
	exit     uint64
	finish   rules.LoopFinishData
	bound    rules.UpdateBoundData
	hasBound bool
	priv     map[int32]rules.MemPrivatiseData
	checks   map[uint64][]rules.BoundsCheckData
	// scan is the host-parallel eligibility verdict, valid once scanned
	// (the body is static, so one scan per run suffices): the statically
	// reachable body addresses of an eligible loop, nil otherwise.
	scan    map[uint64]bool
	scanned bool
	// seq latches the loop into sequential fallback for the current
	// invocation, so LOOP_INIT does not re-fire on every header
	// execution; demoted latches it onto the round-robin engine for the
	// rest of the run after a speculation recovery (see recover.go).
	seq, demoted bool
	// lc is the loop context, ivInit the inductions' loop-entry values
	// and spec the speculative engine's scratch: allocated at the first
	// region that needs them, re-initialised in full by every later one
	// (enter, specRegion.init).
	lc     *jrt.LoopCtx
	ivInit []int64
	spec   *specRegion
}

// Executor runs one program under the DBM.
type Executor struct {
	M     *vm.Machine
	Sched *rules.Schedule
	Ix    *rules.Index
	Cfg   Config

	Stats Stats

	// threads holds one record per configured guest thread and loops one
	// per loop ID a parallelisation rule of the schedule names, so its
	// size is bounded by the rule count whatever IDs a file carries.
	threads []*threadRec
	loops   map[int32]*loopRec
	// stealMu guards the charge ledgers and journals while a speculative
	// region runs (they are single-goroutine otherwise).
	stealMu sync.Mutex

	// main is the program's main context.
	main *vm.Context

	// loop is the active parallel region's loop (nil outside regions).
	loop *loopRec
	// specSet is non-nil exactly while a speculative region's workers
	// run on host goroutines, and holds the active loop's scanned
	// address set. Written only by the main thread before spawning and
	// after joining the workers; workers read it to refuse any block
	// the eligibility scan did not see (plus schedule-ordered work:
	// syscalls, transactions) — work that only a defeated static scan
	// could reach — failing loudly instead of racing.
	specSet map[uint64]bool

	// Profiling state.
	Cov *profiler.Coverage
	Dep *profiler.Dependence

	// inj is the armed fault injector (nil unless Config.Inject is
	// set; nil-safe everywhere it is consulted).
	inj *faultinject.Injector

	steps int64
}

// New creates an executor for exe+libs under schedule s (which may be
// nil for a bare "DynamoRIO only" run). A schedule generated for
// another executable is refused with an error wrapping
// rules.ErrWrongBinary.
func New(exe *obj.Executable, s *rules.Schedule, cfg Config, libs ...*obj.Library) (*Executor, error) {
	if s != nil {
		if err := s.CheckFor(exe.Name, uint64(exe.Size())); err != nil {
			return nil, err
		}
	}
	m, err := vm.NewMachine(exe, libs...)
	if err != nil {
		return nil, err
	}
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = vm.DefaultMaxSteps
	}
	if s == nil {
		s = &rules.Schedule{ExeName: exe.Name}
	}
	ex := &Executor{
		M:       m,
		Sched:   s,
		Ix:      rules.BuildIndex(s),
		Cfg:     cfg,
		threads: make([]*threadRec, cfg.Threads),
		loops:   map[int32]*loopRec{},
		Cov:     profiler.NewCoverage(),
		Dep:     profiler.NewDependence(),
		inj:     faultinject.NewInjector(cfg.Inject),
	}
	for i := range ex.threads {
		ex.threads[i] = takeThreadRec(m.Mem)
	}
	for _, r := range s.Rules {
		switch d := r.Data.(type) {
		case rules.LoopInitData:
			ex.loopFor(r.LoopID)
		case rules.LoopFinishData:
			l := ex.loopFor(r.LoopID)
			if l.exits == nil {
				l.exits, l.exit, l.finish = map[uint64]bool{}, r.Addr, d
			}
			l.exits[r.Addr] = true
			l.exit = min(l.exit, r.Addr)
		case rules.UpdateBoundData:
			l := ex.loopFor(r.LoopID)
			l.bound, l.hasBound = d, true
		case rules.MemPrivatiseData:
			l := ex.loopFor(r.LoopID)
			if l.priv == nil {
				l.priv = map[int32]rules.MemPrivatiseData{}
			}
			l.priv[d.Slot] = d
		case rules.BoundsCheckData:
			l := ex.loopFor(r.LoopID)
			if l.checks == nil {
				l.checks = map[uint64][]rules.BoundsCheckData{}
			}
			l.checks[r.Addr] = append(l.checks[r.Addr], d)
		}
	}
	ex.main = m.NewContext(0, obj.DefaultStackTop)
	ex.main.GPR[guest.RegTLS] = jrt.TLSFor(0)
	return ex, nil
}

// loopFor returns the record of loop id, adding it to the table the
// first time a rule names it. Only New adds; a loop ID is outside input
// (a schedule file carries any int32), so it is only ever a key.
func (ex *Executor) loopFor(id int32) *loopRec {
	l := ex.loops[id]
	if l == nil {
		l = &loopRec{id: id}
		ex.loops[id] = l
	}
	return l
}

// Result is the outcome of a DBM execution.
type Result struct {
	vm.Result
	Stats Stats
}

// fold drains thread t's locally accumulated counters into the
// executor's global step budget and stats. Threads accumulate locally
// so host-parallel execution never races on shared counters; folding
// happens at deterministic points (after each sequential block, and in
// thread-ID order when a parallel region joins), so the folded totals
// are identical whichever engine ran the region.
func (ex *Executor) fold(t *jrt.Thread) {
	ex.steps += t.Steps
	ex.Stats.TransBlocks += t.TransBlocks
	ex.Stats.TransInsts += t.TransInsts
	ex.Stats.TransCycles += t.TransCycles
	t.Steps, t.TransBlocks, t.TransInsts, t.TransCycles = 0, 0, 0, 0
}

// Run executes the program to completion under the DBM and returns its
// result, memory hashes included.
func (ex *Executor) Run() (*Result, error) {
	if err := ex.Execute(); err != nil {
		return nil, err
	}
	return &Result{
		Result: vm.Result{
			Exit:     ex.main.Exit,
			Output:   ex.M.Output,
			Cycles:   ex.main.Cycles,
			Insts:    ex.main.Insts,
			MemHash:  ex.M.Mem.Hash(),
			DataHash: ex.M.Mem.HashBelow(vm.DataHashLimit),
		},
		Stats: ex.Stats,
	}, nil
}

// Execute runs the program to completion under the DBM and builds no
// Result, so it hashes no memory: a profiling run reads only Cov and
// Dep afterwards.
func (ex *Executor) Execute() error {
	t := &jrt.Thread{ID: 0, Ctx: ex.main}
	for !ex.main.Halted {
		if ex.steps >= ex.Cfg.MaxSteps {
			return fmt.Errorf("dbm: exceeded %d steps: %w", ex.Cfg.MaxSteps, ErrStepBudget)
		}
		err := ex.stepBlock(t)
		ex.fold(t)
		if err != nil {
			if err == vm.ErrExited {
				break
			}
			return err
		}
	}
	return nil
}

// Close recycles the machine's memory (vm.Machine.Close), the
// dependence profile's tables (profiler.Dependence.Close) and the
// thread records, translated blocks included, for the next run. The
// Result, the Stats and the coverage profile stay readable; memory, and
// so DataHash, Dep and the records do not. A second Close is a no-op.
func (ex *Executor) Close() {
	ex.M.Close()
	ex.Dep.Close()
	for _, rec := range ex.threads {
		rec.release()
	}
	ex.threads = nil
}

// DataHash hashes memory below the runtime-private regions, for
// correctness comparison against native runs (worker stacks and TLS
// would otherwise differ).
func (ex *Executor) DataHash() uint64 {
	return ex.M.Mem.HashBelow(vm.DataHashLimit)
}

// Package profiler implements Janus' statically-driven profiling: loop
// coverage profiling (dynamic instructions per loop as a proxy for time)
// and cross-iteration memory-dependence profiling. The DBM invokes the
// recording methods from its PROF_* rule handlers; only instrumented
// loops and instrumented instructions ever reach this package, which is
// what makes the paper's profiling cheap.
//
// Loop IDs are small dense integers assigned by the analyzer, so all
// per-loop state lives in index-grown slices rather than maps: the
// per-instruction recording paths (Step, Record) do no map
// operations.
//
// Profilers are not goroutine-safe and never need to be: profiling
// schedules contain no LOOP_INIT rules, so profiled runs execute on a
// single goroutine (the DBM's host-parallel engine is additionally
// disabled whenever profiling is on).
package profiler

import (
	"janus/internal/freelist"
	"janus/internal/wordmap"
)

// grown returns s extended (zero-filled) so that index id is valid.
func grown[T any](s []T, id int) []T {
	if id < len(s) {
		return s
	}
	n := make([]T, id+1, max(2*(id+1), 16))
	copy(n, s)
	return n
}

// Coverage accumulates dynamic instruction counts per loop.
type Coverage struct {
	total int64
	// perLoop[loopID] counts instructions executed while the loop was
	// active (nested loops attribute to every active level).
	perLoop []int64
	// perLoopExcl attributes each instruction only to the innermost
	// active loop, so per-category fractions sum to at most one.
	perLoopExcl []int64
	// invocations[loopID] counts loop entries; iterations counts header
	// executions.
	invocations []int64
	iterations  []int64
	// active is the current loop nest (innermost last).
	active []int
	inNest []bool
}

// NewCoverage returns an empty coverage profile.
func NewCoverage() *Coverage {
	return &Coverage{}
}

// EnterIter handles a PROF_LOOP_ITER at a loop header: either a new
// invocation (loop not active) or another iteration.
func (c *Coverage) EnterIter(loopID int) {
	c.inNest = grown(c.inNest, loopID)
	c.invocations = grown(c.invocations, loopID)
	c.iterations = grown(c.iterations, loopID)
	c.perLoop = grown(c.perLoop, loopID)
	c.perLoopExcl = grown(c.perLoopExcl, loopID)
	if !c.inNest[loopID] {
		c.active = append(c.active, loopID)
		c.inNest[loopID] = true
		c.invocations[loopID]++
	}
	c.iterations[loopID]++
}

// Finish handles PROF_LOOP_FINISH at a loop exit target: pops the loop
// (and any nested loops abandoned by a multi-level exit).
func (c *Coverage) Finish(loopID int) {
	for len(c.active) > 0 {
		top := c.active[len(c.active)-1]
		c.active = c.active[:len(c.active)-1]
		c.inNest[top] = false
		if top == loopID {
			return
		}
	}
}

// IsActive reports whether the loop is currently on the active nest.
func (c *Coverage) IsActive(loopID int) bool {
	return loopID < len(c.inNest) && c.inNest[loopID]
}

// Step attributes n executed instructions to every active loop
// (inclusive) and to the innermost active loop (exclusive). EnterIter
// grew the slices for every active loop, so no bounds growth happens
// here.
func (c *Coverage) Step(n int64) {
	c.total += n
	for _, id := range c.active {
		c.perLoop[id] += n
	}
	if len(c.active) > 0 {
		c.perLoopExcl[c.active[len(c.active)-1]] += n
	}
}

// ExclusiveFractions returns innermost-attributed per-loop coverage;
// summing over disjoint loop sets never exceeds one.
func (c *Coverage) ExclusiveFractions() map[int]float64 {
	out := make(map[int]float64)
	if c.total == 0 {
		return out
	}
	for id, n := range c.perLoopExcl {
		if n > 0 {
			out[id] = float64(n) / float64(c.total)
		}
	}
	return out
}

// AvgIters returns mean iterations per invocation for every profiled
// loop.
func (c *Coverage) AvgIters() map[int]float64 {
	out := make(map[int]float64)
	for id, inv := range c.invocations {
		if inv > 0 {
			out[id] = float64(c.iterations[id]) / float64(inv)
		}
	}
	return out
}

// Fractions returns per-loop coverage as a fraction of all executed
// instructions.
func (c *Coverage) Fractions() map[int]float64 {
	out := make(map[int]float64)
	if c.total == 0 {
		return out
	}
	for id, n := range c.perLoop {
		if n > 0 {
			out[id] = float64(n) / float64(c.total)
		}
	}
	return out
}

// Invocations returns the number of times the loop was entered.
func (c *Coverage) Invocations(loopID int) int64 {
	if loopID >= len(c.invocations) {
		return 0
	}
	return c.invocations[loopID]
}

// Iterations returns the total header executions of the loop.
func (c *Coverage) Iterations(loopID int) int64 {
	if loopID >= len(c.iterations) {
		return 0
	}
	return c.iterations[loopID]
}

// AvgIterations returns mean iterations per invocation.
func (c *Coverage) AvgIterations(loopID int) float64 {
	inv := c.Invocations(loopID)
	if inv == 0 {
		return 0
	}
	return float64(c.Iterations(loopID)) / float64(inv)
}

// Total returns the total profiled instruction count.
func (c *Coverage) Total() int64 { return c.total }

// depRecord is the last access to one word within an invocation.
type depRecord struct {
	iter  int64
	write bool
}

// Dependence detects cross-iteration memory dependences for the
// instrumented accesses of each profiled loop.
type Dependence struct {
	// loops[loopID] is each profiled loop's state. Its tables come from
	// the free list below on first use and go back there at Close.
	loops []loopDep
	// closed is set by Close; any later use panics.
	closed bool
}

// loopDep is one profiled loop's dependence state.
type loopDep struct {
	// last records, per word address, the last iteration that touched
	// it and whether it was a write.
	last *wordmap.Table[depRecord]
	// iter is the current iteration ordinal of the invocation.
	iter int64
	// observed is set once a cross-iteration dependence occurs.
	observed bool
	// conflicts counts dependence events.
	conflicts int64
}

// maxFreeTables bounds the recycled tables a process keeps. One table
// serves one profiled loop of one run; a cache-off janus-bench render
// peaks at 9 to 15 tables on the list and a pipeline_gen sweep at 10.
const maxFreeTables = 16

// maxRecycledSlots bounds the backing a recycled table keeps: 1<<16
// slots of 25 bytes, 1.56 MiB. A cache-off render's tables grow to at
// most 32 768 slots. Close leaves a larger table to the garbage
// collector, so the list holds at most maxFreeTables × 1.56 MiB whatever
// a run profiled.
const maxRecycledSlots = 1 << 16

// tables recycles dependence tables, with their backing arrays, from
// closed profiles to new ones, so a profiling run of a binary whose
// predecessor has closed allocates no table storage once warm.
var tables = freelist.New[wordmap.Table[depRecord]](maxFreeTables)

// TableStats reports how many dependence tables profiles of this
// process have allocated fresh and how many they were handed recycled.
func TableStats() (fresh, reused int64) { return tables.Stats() }

// NewDependence returns an empty dependence profile.
func NewDependence() *Dependence {
	return &Dependence{}
}

// loop returns loop loopID's state, growing the per-loop state to cover
// it and taking the loop's table from the free list — emptied and at its
// initial size — on the loop's first use.
func (d *Dependence) loop(loopID int) *loopDep {
	d.live()
	d.loops = grown(d.loops, loopID)
	l := &d.loops[loopID]
	if l.last == nil {
		l.last = tables.Get()
		l.last.Recycle()
	}
	return l
}

// EnterIter advances the loop to its next iteration (and resets
// tracking state on a fresh invocation, identified by first=true).
func (d *Dependence) EnterIter(loopID int, first bool) {
	l := d.loop(loopID)
	if first {
		l.last.Reset()
		l.iter = 0
		return
	}
	l.iter++
}

// Record notes an instrumented access of width bytes. A dependence is
// observed when an address is touched in different iterations and at
// least one access is a write (word-granularity, like the paper's
// word-based tracking).
func (d *Dependence) Record(loopID int, addr uint64, width int64, write bool) {
	l := d.loop(loopID)
	t, cur := l.last, l.iter
	for off := int64(0); off < width; off += 8 {
		w := (addr + uint64(off)) &^ 7 // word granularity
		rec, ok := t.Get(w)
		if ok && rec.iter != cur && (rec.write || write) {
			l.observed = true
			l.conflicts++
		}
		if !ok || rec.iter != cur || write || rec.write {
			t.Put(w, depRecord{iter: cur, write: write || (ok && rec.write && rec.iter == cur)})
		}
	}
}

// Close returns the profile's tables of at most maxRecycledSlots to the
// free list for the next profile. What Observed and Conflicts report
// must be read before; any use after Close panics. A second Close is a
// no-op.
func (d *Dependence) Close() {
	if d.closed {
		return
	}
	for _, l := range d.loops {
		if l.last != nil && l.last.Slots() <= maxRecycledSlots {
			tables.Put(l.last)
		}
	}
	*d = Dependence{closed: true}
}

// Observed returns the loops with at least one profiled cross-iteration
// dependence.
func (d *Dependence) Observed() map[int]bool {
	d.live()
	out := make(map[int]bool)
	for id, l := range d.loops {
		if l.observed {
			out[id] = true
		}
	}
	return out
}

// Conflicts returns the dependence event count for a loop.
func (d *Dependence) Conflicts(loopID int) int64 {
	d.live()
	if loopID < 0 || loopID >= len(d.loops) {
		return 0
	}
	return d.loops[loopID].conflicts
}

// live panics if d was closed.
func (d *Dependence) live() {
	if d.closed {
		panic("profiler: Dependence used after Close")
	}
}

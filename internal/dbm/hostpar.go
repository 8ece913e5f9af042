package dbm

import (
	"janus/internal/guest"
	"janus/internal/rules"
)

// Host-parallel eligibility: which regions may leave the round-robin
// schedule for the speculative engine (steal.go).
//
// The round-robin engine (parallel.go) steps guest threads on one
// goroutine; its fixed schedule is what makes speculative commit order
// and syscall interleaving deterministic. For the loops Janus actually
// parallelises, though, that schedule is pure overhead: the runtime
// bounds checks (and, for static DOALL loops, the static analysis)
// guarantee every word written by one thread is disjoint from every
// word any other thread touches, so the threads cannot observe each
// other and ANY schedule — including truly concurrent execution on
// host goroutines — produces bit-identical per-thread virtual clocks,
// registers and memory.
//
// hostParEligible proves the "cannot observe each other" part for the
// remaining channels a loop body could interact through:
//
//   - SYSCALL: SysWrite appends to the shared output stream and
//     SysAlloc bumps the shared heap frontier; both are ordered by the
//     round-robin schedule, so a body that may reach one must keep
//     that schedule.
//   - TX_START: speculation validates against shared memory and
//     commits in age order; concurrency would reorder commits.
//   - JMPI/CALLI: indirect control flow makes the reachable-code scan
//     unsound, so it conservatively rejects.
//
// The scan walks the static control-flow graph from the loop head,
// pruning at the loop's exit targets (every exit carries a LOOP_FINISH
// rule, and translated blocks always break at rule addresses, so a
// running thread is caught at an exit before executing past it). The
// verdict depends only on the binary and the schedule, never on an
// invocation, so it is cached per loop.

// hostParScanCap bounds the eligibility scan; bodies larger than this
// conservatively use the round-robin engine.
const hostParScanCap = 1 << 15

// hostParEligible returns the scanned body-address set if loop l,
// starting at start, may run its region on host goroutines under the
// current configuration, or nil if it must use the round-robin engine.
func (ex *Executor) hostParEligible(l *loopRec, start uint64) map[uint64]bool {
	// A loop demoted by a speculation recovery stays on the round-robin
	// engine for the rest of the run (see recover.go); the cached scan
	// verdict remains valid, it just stops being consulted.
	if !ex.Cfg.HostParallel || ex.Cfg.Profile || ex.Cfg.Threads <= 1 || l.demoted {
		return nil
	}
	if !l.scanned {
		l.scan, l.scanned = ex.scanHostParBody(l.exits, start), true
	}
	return l.scan
}

// scanHostParBody walks the statically reachable code of one loop body
// up to its exit targets and, if it is free of schedule-dependent
// effects, returns the set of visited addresses (nil otherwise). The
// set doubles as the runtime allowlist: a speculative-engine worker
// refuses any block starting outside it, so even control flow the scan
// cannot see (a redirected return address) fails deterministically
// instead of executing unscanned code concurrently.
func (ex *Executor) scanHostParBody(exits map[uint64]bool, start uint64) map[uint64]bool {
	// site distinguishes code reached at loop level (topLevel: a RET
	// here would pop a frame pushed before the region and escape it)
	// from code reached through a scanned CALL (inCall: its RET
	// returns to a scanned fall-through).
	const (
		topLevel = 1 << iota
		inCall
	)
	type item struct {
		addr uint64
		site uint8
	}
	seen := make(map[uint64]uint8)
	work := []item{{start, topLevel}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[it.addr]&it.site != 0 || exits[it.addr] {
			continue
		}
		if seen[it.addr] == 0 && len(seen) >= hostParScanCap {
			return nil
		}
		seen[it.addr] |= it.site
		for _, r := range ex.Ix.At(it.addr) {
			if r.ID == rules.TX_START {
				return nil
			}
		}
		in, err := ex.M.FetchInst(it.addr)
		if err != nil {
			return nil
		}
		next := item{it.addr + guest.InstSize, it.site}
		switch in.Op {
		case guest.SYSCALL:
			return nil
		case guest.JMPI, guest.CALLI:
			return nil
		case guest.RET:
			if it.site&topLevel != 0 {
				// Returning out of the function containing the loop
				// would leave the region without passing an exit target.
				return nil
			}
			// Path ends: the return address was pushed by a scanned
			// CALL, whose fall-through is already on the worklist.
		case guest.HALT:
			// Path ends.
		case guest.JMP:
			work = append(work, item{uint64(in.Imm), it.site})
		case guest.CALL:
			work = append(work, item{uint64(in.Imm), inCall}, next)
		case guest.JE, guest.JNE, guest.JL, guest.JLE, guest.JG, guest.JGE:
			work = append(work, item{uint64(in.Imm), it.site}, next)
		default:
			work = append(work, next)
		}
	}
	set := make(map[uint64]bool, len(seen))
	for a := range seen {
		set[a] = true
	}
	return set
}

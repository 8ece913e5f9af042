// Package faultinject provides seeded, deterministic fault injection
// for the speculative region engine. A Plan names one injection point
// and how often it fires; an Injector carries the per-run state that
// decides — deterministically, from the region counter and seed —
// which speculative regions are armed. The package is compiled in
// always: with no plan configured every hook is a nil-receiver method
// call that returns immediately, so the production fast path pays
// nothing.
//
// Spec grammar (ParsePlan; dbm.Config.Inject arms a region plan, and
// janusd's -inject flag a service plan):
//
//	point[@every][#seed]
//
// where point is one of the region points scan-defeat, worker-panic,
// stall, budget, or the janusd service points handler-panic,
// queue-stall, slow-worker; @every arms one region (or service
// request) in every `every` (default 1: every one); #seed offsets
// which one in each stride fires (default 0).
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Point names one injection site inside the speculative engine.
type Point int

const (
	// ScanDefeat forces a mid-region eligibility violation: the region
	// behaves as if a translated block escaped the statically scanned
	// loop body.
	ScanDefeat Point = iota + 1
	// WorkerPanic forces a panic inside one region worker goroutine,
	// exercising panic containment.
	WorkerPanic
	// Stall forces one worker to report no forward progress, as a stuck
	// or livelocked region would.
	Stall
	// BudgetExhaust forces the region's shared step budget to zero, so
	// every worker trips the budget backstop.
	BudgetExhaust

	// The remaining points are service-level: they fire inside janusd's
	// request lifecycle rather than inside the speculative engine, so
	// the daemon's robustness machinery (panic containment, deadlines,
	// load shedding, drain) is testable deterministically. Region
	// engines never fire them and janusd never fires the region points,
	// so one Plan grammar serves both layers without ambiguity.

	// HandlerPanic forces a panic inside an armed job's handler,
	// exercising the daemon's per-job panic containment.
	HandlerPanic
	// QueueStall delays an armed job while it is still queued, as a
	// wedged dispatch path would, exercising queue-deadline and
	// load-shedding behaviour.
	QueueStall
	// SlowWorker delays an armed job mid-execution, exercising
	// per-request deadlines and drain timeouts.
	SlowWorker
)

var pointNames = map[Point]string{
	ScanDefeat:    "scan-defeat",
	WorkerPanic:   "worker-panic",
	Stall:         "stall",
	BudgetExhaust: "budget",
	HandlerPanic:  "handler-panic",
	QueueStall:    "queue-stall",
	SlowWorker:    "slow-worker",
}

func (p Point) String() string {
	if s, ok := pointNames[p]; ok {
		return s
	}
	return fmt.Sprintf("faultinject.Point(%d)", int(p))
}

// Plan is an immutable injection recipe, shared by every Injector of a
// run.
type Plan struct {
	Point Point
	// Every arms one region in every Every speculative regions
	// (minimum and default 1).
	Every uint64
	// Seed offsets which region within each stride is armed.
	Seed uint64
}

// ParsePlan parses the spec grammar point[@every][#seed].
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{Every: 1}
	rest := spec
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		seed, err := strconv.ParseUint(rest[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad seed in %q: %v", spec, err)
		}
		p.Seed = seed
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		every, err := strconv.ParseUint(rest[i+1:], 10, 64)
		if err != nil || every == 0 {
			return nil, fmt.Errorf("faultinject: bad stride in %q", spec)
		}
		p.Every = every
		rest = rest[:i]
	}
	for pt, name := range pointNames {
		if rest == name {
			p.Point = pt
			return p, nil
		}
	}
	return nil, fmt.Errorf("faultinject: unknown injection point %q (want scan-defeat, worker-panic, stall, budget, handler-panic, queue-stall, or slow-worker)", rest)
}

// String renders the plan back in spec grammar.
func (p *Plan) String() string {
	s := p.Point.String()
	if p.Every > 1 {
		s += "@" + strconv.FormatUint(p.Every, 10)
	}
	if p.Seed != 0 {
		s += "#" + strconv.FormatUint(p.Seed, 10)
	}
	return s
}

// Injector decides which speculative regions a plan fires in. One
// Injector belongs to one Executor; Arm is called on the orchestrating
// goroutine before each speculative region, Fire from any region
// worker. A nil *Injector is valid and never fires.
type Injector struct {
	plan *Plan
	// regions counts Arm calls; orchestrating goroutine only.
	regions uint64
	// offset selects which region within each Every-stride is armed,
	// derived from the seed so different seeds hit different regions.
	offset uint64
	// armed is 1 while the current region should fire; Fire claims it
	// with a CAS so exactly one worker fires per armed region.
	armed atomic.Uint32
}

// NewInjector returns an injector for plan, or nil if plan is nil.
func NewInjector(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	every := plan.Every
	if every == 0 {
		every = 1
	}
	return &Injector{plan: plan, offset: splitmix64(plan.Seed) % every}
}

// Arm marks the start of a speculative region and decides
// deterministically whether the plan fires in it. Call only from the
// orchestrating goroutine, never concurrently with Fire.
func (in *Injector) Arm() {
	if in == nil {
		return
	}
	n := in.regions
	in.regions++
	every := in.plan.Every
	if every == 0 {
		every = 1
	}
	if n%every == in.offset {
		in.armed.Store(1)
	} else {
		in.armed.Store(0)
	}
}

// Fire reports whether injection point p fires here: true exactly once
// per armed region, for the plan's own point only. Safe from any
// goroutine.
func (in *Injector) Fire(p Point) bool {
	if in == nil || in.plan.Point != p {
		return false
	}
	return in.armed.CompareAndSwap(1, 0)
}

// splitmix64 is the SplitMix64 finalizer, here to decorrelate seed
// from stride offset.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

package dbm

import (
	"errors"
	"fmt"
)

// Region failure causes. Every failure inside a parallel region is
// reported as a *RegionError wrapping one of these (or the underlying
// guest fault), so callers can classify with errors.Is/As instead of
// matching message strings.
var (
	// ErrRegionStuck reports a wedged parallel region: no runnable
	// thread made progress, or the region exhausted its shared step
	// budget.
	ErrRegionStuck = errors.New("parallel region made no progress")
	// ErrScanSyscall / ErrScanTx / ErrScanEscaped report schedule-
	// ordered work reached inside a host-parallel region — impossible
	// unless the eligibility scan's static view of the loop body was
	// defeated at runtime.
	ErrScanSyscall = errors.New("syscall reached in host-parallel region (eligibility scan defeated)")
	ErrScanTx      = errors.New("transaction started in host-parallel region (eligibility scan defeated)")
	ErrScanEscaped = errors.New("unscanned block reached in host-parallel region (eligibility scan defeated)")
	// ErrWorkerPanic reports a panic recovered inside a region worker;
	// the RegionError carries the captured stack.
	ErrWorkerPanic = errors.New("region worker panicked")
	// ErrBadSchedule reports a schedule whose parallelisation rules do
	// not add up: a loop entered through LOOP_INIT that has no
	// LOOP_UPDATE_BOUND rule or no LOOP_FINISH exit target.
	ErrBadSchedule = errors.New("inconsistent rewrite schedule")
	// ErrStepBudget reports the executor-wide instruction budget
	// (Config.MaxSteps) exhausted outside any parallel region.
	ErrStepBudget = errors.New("step budget exceeded")
)

// RegionError is a failure inside one parallel region: which loop,
// which worker (-1 when no single worker is to blame, e.g. a wedged
// round-robin schedule), and the underlying cause. Speculative-engine
// failures are recovered by re-executing the region round-robin (see
// runRegionRecoverable); a RegionError that escapes Executor.Run came
// from the deterministic engine itself and is genuinely fatal.
type RegionError struct {
	LoopID int32
	Worker int
	Cause  error
	// Stack is the captured goroutine stack when Cause wraps
	// ErrWorkerPanic, nil otherwise.
	Stack []byte
}

func (e *RegionError) Error() string {
	if e.Worker < 0 {
		return fmt.Sprintf("dbm: loop %d: %v", e.LoopID, e.Cause)
	}
	return fmt.Sprintf("dbm: loop %d worker %d: %v", e.LoopID, e.Worker, e.Cause)
}

func (e *RegionError) Unwrap() error { return e.Cause }

// regionErr wraps cause as a RegionError unless it already is one
// (step errors can cross nested helpers; blame the innermost frame).
func regionErr(loopID int32, worker int, cause error) error {
	var re *RegionError
	if errors.As(cause, &re) {
		return cause
	}
	return &RegionError{LoopID: loopID, Worker: worker, Cause: cause}
}

// panicErr converts a recovered panic value and stack into a
// RegionError that classifies as ErrWorkerPanic.
func panicErr(loopID int32, worker int, p any, stack []byte) error {
	return &RegionError{
		LoopID: loopID,
		Worker: worker,
		Cause:  fmt.Errorf("%w: %v", ErrWorkerPanic, p),
		Stack:  stack,
	}
}

package dbm

import (
	"errors"
	"strings"
	"testing"
)

func TestRegionErrorClassification(t *testing.T) {
	err := regionErr(7, 3, ErrScanEscaped)
	var re *RegionError
	if !errors.As(err, &re) {
		t.Fatalf("regionErr did not produce a *RegionError: %T", err)
	}
	if re.LoopID != 7 || re.Worker != 3 {
		t.Errorf("blame lost: loop %d worker %d, want 7/3", re.LoopID, re.Worker)
	}
	if !errors.Is(err, ErrScanEscaped) {
		t.Error("errors.Is cannot see through RegionError to the cause")
	}
	if errors.Is(err, ErrWorkerPanic) {
		t.Error("errors.Is matches an unrelated cause")
	}
	if got := err.Error(); !strings.Contains(got, "loop 7 worker 3") {
		t.Errorf("Error() drops the blame: %q", got)
	}
}

func TestRegionErrorNoWorkerBlame(t *testing.T) {
	err := regionErr(4, -1, ErrRegionStuck)
	if got := err.Error(); strings.Contains(got, "worker") {
		t.Errorf("Error() invents a worker for a region-wide failure: %q", got)
	} else if !strings.Contains(got, "loop 4") {
		t.Errorf("Error() drops the loop: %q", got)
	}
}

// A step error crossing nested helpers must keep the innermost blame:
// re-wrapping an existing RegionError is a no-op.
func TestRegionErrorNoDoubleWrap(t *testing.T) {
	inner := regionErr(7, 3, ErrRegionStuck)
	outer := regionErr(9, -1, inner)
	if outer != inner {
		t.Fatalf("regionErr re-wrapped an existing RegionError: %v", outer)
	}
}

func TestPanicErrClassifiesAsWorkerPanic(t *testing.T) {
	err := panicErr(5, 2, "index out of range", []byte("goroutine 1 [running]:\n..."))
	if !errors.Is(err, ErrWorkerPanic) {
		t.Error("panicErr does not classify as ErrWorkerPanic")
	}
	var re *RegionError
	if !errors.As(err, &re) {
		t.Fatalf("panicErr did not produce a *RegionError: %T", err)
	}
	if len(re.Stack) == 0 {
		t.Error("captured stack lost")
	}
	if got := err.Error(); !strings.Contains(got, "index out of range") {
		t.Errorf("panic value lost from message: %q", got)
	}
}

// The demotion latch: counts each loop once, never releases.
func TestDemotionLatch(t *testing.T) {
	ex := &Executor{}
	a, b, c := &loopRec{id: 12}, &loopRec{id: 3}, &loopRec{id: 13}
	ex.demote(a)
	if !a.demoted || b.demoted || c.demoted {
		t.Error("latch imprecise after demoting loop 12")
	}
	ex.demote(a)
	ex.demote(b)
	if got := ex.Stats.DemotedLoops; got != 2 {
		t.Errorf("DemotedLoops = %d after demoting loops {12, 3}, want 2", got)
	}
	if !a.demoted || !b.demoted {
		t.Error("latch released")
	}
}

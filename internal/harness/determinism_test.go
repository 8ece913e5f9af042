package harness

// The load-bearing invariant of the concurrent harness: every figure
// is computed from virtual cycles and folded back in a fixed order, so
// the rendered janus-bench output must be byte-identical whatever the
// host concurrency — GOMAXPROCS=1 vs all cores, row scheduling at any
// -jobs bound, and host-parallel vs single-goroutine round-robin
// regions. golden_test.go pins the whole suite against the committed
// fixture; these tests pin one figure across the engine axes for a
// fast, focused signal. (The speculative engine's subdivision factor
// is not a harness option; internal/dbm's steal and recovery tests and
// the genkern oracle pin factor 1 against jrt.StealFactor.)

import (
	"runtime"
	"testing"
)

// renderFigure7 regenerates figure 7 — executing its runs, not
// replaying the other leg's from memory (freshRuns) — and renders it to
// text. The byte-comparison pairs below are skipped under -short (each
// renders the figure twice); the -race CI job runs -short and still
// exercises the concurrent machinery through TestGoldenOutput and the
// dbm engine tests.
func renderFigure7(t *testing.T, o Options) string {
	t.Helper()
	if testing.Short() {
		t.Skip("renders figure 7 twice; run without -short")
	}
	executed := freshRuns(t)
	rows, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	executed()
	return RenderFigure7(rows)
}

func TestFigure7ByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := renderFigure7(t, DefaultOptions())
	runtime.GOMAXPROCS(max(runtime.NumCPU(), 4))
	many := renderFigure7(t, DefaultOptions())
	if one != many {
		t.Errorf("figure 7 output differs across GOMAXPROCS:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=n ---\n%s", one, many)
	}
}

func TestFigure7ByteIdenticalAcrossEngines(t *testing.T) {
	hp := DefaultOptions()
	rr := DefaultOptions()
	rr.SingleGoroutine = true
	if got, want := renderFigure7(t, rr), renderFigure7(t, hp); got != want {
		t.Errorf("figure 7 output differs between engines:\n--- host-parallel ---\n%s\n--- round-robin ---\n%s", want, got)
	}
}

func TestFigure7ByteIdenticalAcrossJobs(t *testing.T) {
	seq := DefaultOptions()
	seq.Jobs = 1
	par := DefaultOptions()
	par.Jobs = max(runtime.NumCPU(), 4)
	if got, want := renderFigure7(t, par), renderFigure7(t, seq); got != want {
		t.Errorf("figure 7 output differs across -jobs:\n--- jobs=1 ---\n%s\n--- jobs=n ---\n%s", want, got)
	}
}

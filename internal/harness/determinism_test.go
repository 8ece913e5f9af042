package harness

// The load-bearing invariant of the concurrent harness: every figure
// is computed from virtual cycles and folded back in a fixed order, so
// the rendered janus-bench output must be byte-identical whatever the
// host concurrency — GOMAXPROCS=1 vs all cores and row scheduling at
// any -jobs bound. golden_test.go pins the whole suite against the
// committed fixture; these tests pin one figure across both axes for a
// fast, focused signal. (The region engine is not a harness option;
// the root package's TestVerifyAcrossOptLevelsThreadsEngines, the dbm
// engine tests and the genkern oracle pin its equivalence.)

import (
	"context"
	"runtime"
	"testing"
)

// renderFigure7 regenerates figure 7 under freshRuns — executing its
// runs, not replaying the other leg's from memory — and renders it to
// text. The byte-comparison pairs below are skipped under -short (each
// renders the figure twice); the -race CI job runs -short and still
// exercises the concurrent machinery through TestGoldenOutput and the
// dbm engine tests.
func renderFigure7(t *testing.T, o Options) string {
	t.Helper()
	if testing.Short() {
		t.Skip("renders figure 7 twice; run without -short")
	}
	o = freshRuns(o)
	rows, err := launch(context.Background(), o, figure7)
	if err != nil {
		t.Fatal(err)
	}
	executed(t, o)
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

func TestFigure7ByteIdenticalAcrossJobs(t *testing.T) {
	seq := DefaultOptions()
	seq.Jobs = 1
	par := DefaultOptions()
	par.Jobs = max(runtime.NumCPU(), 4)
	if got, want := renderFigure7(t, par), renderFigure7(t, seq); got != want {
		t.Errorf("figure 7 output differs across -jobs:\n--- jobs=1 ---\n%s\n--- jobs=n ---\n%s", want, got)
	}
}

package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"janus/internal/workloads"
)

// seqOptions is the shape tests' configuration: default engines, a
// modest concurrent row budget (the shapes are Jobs-independent; the
// golden tests pin byte-identity across Jobs values explicitly).
func seqOptions() Options {
	o := DefaultOptions()
	o.Jobs = 2
	return o
}

// rowsOf computes one experiment's rows, one per benchmark of benches,
// on a render's queue under o.
func rowsOf[T any](t *testing.T, o Options, benches []string, row func(*render, string) (T, error)) []T {
	t.Helper()
	r, err := newRender(o)
	if err != nil {
		t.Fatal(err)
	}
	var rows []T
	fold := func(v []T) string { rows = v; return "" }
	if _, err := r.renderAll(context.Background(), []Experiment{experiment("rows", benches, row, fold)}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestSelectionNamesAnExperiment: a fig or table naming no experiment
// renders nothing and is an ErrNoExperiment, not an empty success; a
// valid selection beside it does not rescue it.
func TestSelectionNamesAnExperiment(t *testing.T) {
	for _, sel := range [][2]int{{99, 0}, {5, 0}, {0, 3}, {0, -1}, {7, 5}} {
		out, err := RenderAll(seqOptions(), sel[0], sel[1])
		if !errors.Is(err, ErrNoExperiment) || out != "" {
			t.Errorf("fig %d, table %d: err %v, %d bytes rendered; want ErrNoExperiment and nothing", sel[0], sel[1], err, len(out))
		}
	}
	for _, sel := range [][2]int{{0, 0}, {6, 0}, {12, 0}, {0, 1}, {7, 2}} {
		if _, err := Experiments(sel[0], sel[1]); err != nil {
			t.Errorf("fig %d, table %d: %v", sel[0], sel[1], err)
		}
	}
}

func TestFigure6ShapeHolds(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.Names(), figure6)
	if len(rows) != 25 {
		t.Fatalf("figure 6 covers %d benchmarks, want 25", len(rows))
	}
	byName := map[string]Fig6Row{}
	for _, r := range rows {
		byName[r.Bench] = r
		// Fractions are sane.
		for _, f := range []float64{r.Static.StaticDOALL, r.Static.DynDOALL, r.Static.StaticDep, r.Static.DynDep, r.Static.Incompat} {
			if f < 0 || f > 1 {
				t.Errorf("%s: static fraction out of range: %v", r.Bench, f)
			}
		}
		sum := r.Static.StaticDOALL + r.Static.DynDOALL + r.Static.StaticDep + r.Static.DynDep + r.Static.Incompat
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s: static fractions sum to %v", r.Bench, sum)
		}
	}
	// Paper shape: lbm spends almost all time in DOALL loops;
	// xalancbmk spends almost none.
	lbm := byName["470.lbm"]
	if doall := lbm.Dynamic.StaticDOALL + lbm.Dynamic.DynDOALL; doall < 0.80 {
		t.Errorf("lbm DOALL execution fraction %.2f, want > 0.80 (paper: 98%%)", doall)
	}
	xal := byName["483.xalancbmk"]
	if doall := xal.Dynamic.StaticDOALL + xal.Dynamic.DynDOALL; doall > 0.20 {
		t.Errorf("xalancbmk DOALL execution fraction %.2f, want small (paper: 1%%)", doall)
	}
	// hmmer is dominated by its DP recurrence (static dep).
	hm := byName["456.hmmer"]
	if hm.Dynamic.StaticDep < 0.3 {
		t.Errorf("hmmer static-dep fraction %.2f, want significant", hm.Dynamic.StaticDep)
	}
	out := RenderFigure6(rows)
	if !strings.Contains(out, "470.lbm") {
		t.Error("render missing benchmarks")
	}
}

// TestFigure7HeaderCarriesMeasuredThreads: the header names the thread
// count the rows were measured at (TestFigure7ShapeHolds checks the
// rows carry it), not the default.
func TestFigure7HeaderCarriesMeasuredThreads(t *testing.T) {
	out := RenderFigure7([]Fig7Row{{Bench: "470.lbm", Threads: 4}})
	if head, _, _ := strings.Cut(out, "\n"); !strings.HasSuffix(head, ", 4 threads") {
		t.Errorf("header %q over rows measured at 4 threads", head)
	}
}

func TestFigure7ShapeHolds(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.ParallelisableNames(), figure7)
	if len(rows) != 9 {
		t.Fatalf("figure 7 rows: %d", len(rows))
	}
	byName := map[string]Fig7Row{}
	var dbmOnly []float64
	for _, r := range rows {
		byName[r.Bench] = r
		if r.Threads != DefaultThreads {
			t.Errorf("%s: row says it was measured at %d threads, want %d", r.Bench, r.Threads, DefaultThreads)
		}
		dbmOnly = append(dbmOnly, r.DBMOnly)
		// Bare DBM never speeds things up in this model.
		if r.DBMOnly > 1.05 {
			t.Errorf("%s: bare DBM speedup %.2f > 1", r.Bench, r.DBMOnly)
		}
		// The full system must never be slower than the
		// profile-guided configuration by more than noise: checks only
		// add coverage.
		if r.Janus < r.Profile*0.98 {
			t.Errorf("%s: checks lost performance: %.2f < %.2f", r.Bench, r.Janus, r.Profile)
		}
	}
	// Average bare-DBM overhead is single-digit percent (paper: ~6%).
	if g := geomean(dbmOnly); g < 0.85 || g > 1.0 {
		t.Errorf("bare DBM geomean %.3f, want ~0.94", g)
	}
	// Headliners and stragglers.
	if byName["462.libquantum"].Janus < 4 {
		t.Errorf("libquantum only %.2fx (paper: 6.0)", byName["462.libquantum"].Janus)
	}
	if byName["470.lbm"].Janus < 4 {
		t.Errorf("lbm only %.2fx (paper: 5.8)", byName["470.lbm"].Janus)
	}
	if byName["464.h264ref"].Janus > 1.0 {
		t.Errorf("h264ref should stay a slowdown, got %.2fx", byName["464.h264ref"].Janus)
	}
	// Profile selection must rescue what static selection loses on the
	// small-loop benchmarks (paper: leslie3d/GemsFDTD lose performance
	// under static-only).
	for _, name := range []string{"437.leslie3d", "459.GemsFDTD", "433.milc"} {
		r := byName[name]
		if r.Profile < r.Static {
			t.Errorf("%s: profile (%.2f) should not be below static (%.2f)", name, r.Profile, r.Static)
		}
	}
	// Checks unlock bwaves and GemsFDTD (paper §III-B).
	if r := byName["410.bwaves"]; r.Janus <= r.Profile {
		t.Errorf("bwaves: checks should raise speedup: %.2f <= %.2f", r.Janus, r.Profile)
	}
	if r := byName["459.GemsFDTD"]; r.Janus <= r.Profile {
		t.Errorf("GemsFDTD: checks should raise speedup: %.2f <= %.2f", r.Janus, r.Profile)
	}
	_ = RenderFigure7(rows)
}

func TestFigure9Monotonicity(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.ParallelisableNames(), figure9)
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Bench] = r
		if len(r.Speedups) != 8 {
			t.Fatalf("%s: %d thread points", r.Bench, len(r.Speedups))
		}
	}
	// libquantum and lbm scale well to 4 threads (paper: 3.9x/3.7x).
	for _, name := range []string{"462.libquantum", "470.lbm"} {
		s := byName[name].Speedups
		if s[3] < 2.5 {
			t.Errorf("%s at 4 threads: %.2f, want near-linear", name, s[3])
		}
		if s[7] < s[3] {
			t.Errorf("%s: 8 threads (%.2f) below 4 threads (%.2f)", name, s[7], s[3])
		}
	}
	_ = RenderFigure9(rows)
}

func TestFigure10SmallSchedules(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.ParallelisableNames(), figure10)
	var fr []float64
	for _, r := range rows {
		if r.ScheduleSize <= 0 {
			t.Errorf("%s: empty schedule", r.Bench)
		}
		if r.Fraction > 0.25 {
			t.Errorf("%s: schedule %0.1f%% of binary, too large", r.Bench, 100*r.Fraction)
		}
		fr = append(fr, r.Fraction)
	}
	if g := geomean(fr); g > 0.12 {
		t.Errorf("schedule size geomean %.1f%%, paper reports 3.7%%", 100*g)
	}
	_ = RenderFigure10(rows)
}

func TestFigure11CompilerComparison(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.ParallelisableNames(), figure11)
	byName := map[string]Fig11Row{}
	var g, jg []float64
	for _, r := range rows {
		byName[r.Bench] = r
		g = append(g, r.GccAuto)
		jg = append(jg, r.JanusGcc)
	}
	// Paper: on the benchmarks where Janus is best, neither compiler
	// reaches its performance (library calls and runtime checks).
	if r := byName["410.bwaves"]; r.GccAuto >= r.JanusGcc {
		t.Errorf("bwaves: gcc (%.2f) should trail Janus (%.2f): gcc cannot speculate on pow", r.GccAuto, r.JanusGcc)
	}
	// Janus on gcc binaries beats gcc auto-parallelisation on average
	// (paper: 2.2x vs 1.1x).
	if geomean(jg) <= geomean(g) {
		t.Errorf("Janus (%.2f) should beat gcc auto-par (%.2f) on geomean", geomean(jg), geomean(g))
	}
	_ = RenderFigure11(rows)
}

func TestFigure12OptLevels(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.ParallelisableNames(), figure12)
	byName := map[string]Fig12Row{}
	var o3s, avxs []float64
	for _, r := range rows {
		byName[r.Bench] = r
		o3s = append(o3s, r.O3)
		avxs = append(avxs, r.AVX)
	}
	// Paper: O2 vs O3 negligible; AVX generally limits Janus.
	if geomean(avxs) > geomean(o3s)*1.1 {
		t.Errorf("AVX (%.2f) should not beat O3 (%.2f) on geomean", geomean(avxs), geomean(o3s))
	}
	_ = RenderFigure12(rows)
}

func TestTableIShape(t *testing.T) {
	rows := rowsOf(t, seqOptions(), workloads.ParallelisableNames(), tableI)
	byName := map[string]Tab1Row{}
	for _, r := range rows {
		if r.Loops > 0 { // Table I lists only benchmarks with checks
			byName[r.Bench] = r
		}
	}
	// The check-needing set includes bwaves, milc, cactusADM, GemsFDTD.
	for _, name := range []string{"410.bwaves", "433.milc", "436.cactusADM", "459.GemsFDTD"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("%s missing from Table I", name)
		}
	}
	// Ordering shape: bwaves has the fewest ranges per check; milc and
	// GemsFDTD the most.
	if bw, ok := byName["410.bwaves"]; ok {
		if milc, ok2 := byName["433.milc"]; ok2 && bw.AvgRanges >= milc.AvgRanges {
			t.Errorf("bwaves (%.1f) should have fewer ranges than milc (%.1f)", bw.AvgRanges, milc.AvgRanges)
		}
	}
	_ = RenderTableI(rows)
}

func TestTableIIRenders(t *testing.T) {
	out := TableII()
	for _, tool := range []string{"Janus", "SecondWrite", "Yardimci"} {
		if !strings.Contains(out, tool) {
			t.Errorf("Table II missing %s", tool)
		}
	}
}

package analyzer

import (
	"reflect"
	"testing"
)

// TestApplyUnknownProfileIDs pins the unknown-loop-ID contract of the
// profile-application entry points: records naming IDs outside the
// program are counted in UnknownProfileIDs (never silently dropped),
// while valid records still apply.
func TestApplyUnknownProfileIDs(t *testing.T) {
	exe := buildMixed(t)
	p, err := Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) == 0 {
		t.Fatal("no loops analysed")
	}
	valid := p.Loops[0].ID
	const bogus = 9999
	if p.LoopByID(bogus) != nil {
		t.Fatalf("loop ID %d unexpectedly exists", bogus)
	}

	p.ApplyCoverage(map[int]float64{valid: 0.5, bogus: 0.25})
	p.ApplyExclCoverage(map[int]float64{valid: 0.4, bogus: 0.25})
	p.ApplyAvgIters(map[int]float64{valid: 128, bogus: 64})
	p.ApplyDependences(map[int]bool{valid: false, bogus: true})

	if p.UnknownProfileIDs != 4 {
		t.Errorf("UnknownProfileIDs = %d, want 4 (one per Apply call)", p.UnknownProfileIDs)
	}
	li := p.LoopByID(valid)
	if li.Coverage != 0.5 || li.ExclCoverage != 0.4 || li.AvgIter != 128 {
		t.Errorf("valid record not applied: cov=%v excl=%v avg=%v", li.Coverage, li.ExclCoverage, li.AvgIter)
	}
	if !li.DepProfiled || li.ObservedDep {
		t.Errorf("valid dependence record not applied: profiled=%v observed=%v", li.DepProfiled, li.ObservedDep)
	}

	// Negative IDs are equally unknown.
	p.ApplyCoverage(map[int]float64{-1: 0.1})
	if p.UnknownProfileIDs != 5 {
		t.Errorf("UnknownProfileIDs = %d after negative-ID record, want 5", p.UnknownProfileIDs)
	}
}

// TestForkLeavesOriginalVerdicts: every mutator run on a fork —
// the profile appliers, SelectLoops and a caller rewriting a verdict —
// leaves the original's loop records as Analyze made them, while the
// fork shares the analyses they point to.
func TestForkLeavesOriginalVerdicts(t *testing.T) {
	p, err := Analyze(buildMixed(t))
	if err != nil {
		t.Fatal(err)
	}
	before := make([]LoopInfo, len(p.Loops))
	for i, li := range p.Loops {
		before[i] = *li
	}
	f := p.Fork()
	all := map[int]float64{}
	deps := map[int]bool{}
	for _, li := range f.Loops {
		all[li.ID] = 0.5
		deps[li.ID] = true
	}
	all[9999] = 1
	f.ApplyCoverage(all)
	f.ApplyExclCoverage(all)
	f.ApplyAvgIters(all)
	f.ApplyDependences(deps)
	for _, li := range f.SelectLoops(SelectOptions{UseProfile: true, UseChecks: true}) {
		li.Rejected, li.Selected = AnyCall, false
	}
	if p.UnknownProfileIDs != 0 || f.UnknownProfileIDs == 0 {
		t.Errorf("UnknownProfileIDs: original %d, fork %d", p.UnknownProfileIDs, f.UnknownProfileIDs)
	}
	for i, li := range p.Loops {
		if !reflect.DeepEqual(*li, before[i]) {
			t.Errorf("loop %d: a fork's mutators rewrote the original record:\n got %+v\nwant %+v", i, *li, before[i])
		}
		fl := f.Loops[i]
		if fl == li || fl.Loop != li.Loop || fl.Sym != li.Sym || fl.Dep != li.Dep {
			t.Errorf("loop %d: the fork does not share the original's analyses", i)
		}
	}
}

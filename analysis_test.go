package janus_test

import (
	"reflect"
	"sync"
	"testing"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/compilers"
	"janus/internal/workloads"
)

// TestPlansCannotWriteThroughSharedAnalysis: every plan of a binary
// reads the session's one analysis of it and writes its training and
// selection to a fork. Eight goroutines plan one registry binary under
// the four Janus selections and both compiler models, each starting at
// another selection so that different policies run side by side; the
// binary must be analysed once, every plan must equal a fresh session's,
// and the memoised Program must still carry the verdicts a fresh Analyze
// gives. The race detector sees any write through it.
func TestPlansCannotWriteThroughSharedAnalysis(t *testing.T) {
	exe, libs, err := workloads.Build("470.lbm", workloads.Ref, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	var sels []janus.Selection
	for _, profile := range []bool{false, true} {
		for _, checks := range []bool{false, true} {
			sels = append(sels, janus.Config{UseProfile: profile, UseChecks: checks}.Selection())
		}
	}
	sels = append(sels, compilers.GCC.Selection(), compilers.ICC.Selection())

	s := janus.NewSession(nil)
	bin := s.BinaryOf(exe, libs...)
	plans := make([][]*janus.Plan, 8)
	var wg sync.WaitGroup
	for g := range plans {
		plans[g] = make([]*janus.Plan, len(sels))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sels {
				k := (g + i) % len(sels)
				p, err := s.PlanCached(nil, bin, nil, sels[k])
				if err != nil {
					t.Error(err)
					return
				}
				plans[g][k] = p
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if a := s.TierStats()["analysis"]; a.Computed != 1 {
		t.Fatalf("%d plans of one binary made %d analyses, want 1 (%+v)", len(plans)*len(sels), a.Computed, a)
	}

	for k, sel := range sels {
		fresh := janus.NewSession(nil)
		want, err := fresh.PlanCached(nil, fresh.BinaryOf(exe, libs...), nil, sel)
		if err != nil {
			t.Fatal(err)
		}
		for g := range plans {
			got := plans[g][k]
			if got.Digest() != want.Digest() || !reflect.DeepEqual(got.Loops, want.Loops) {
				t.Errorf("%s, goroutine %d: the plan differs from a fresh session's:\n got %s %+v\nwant %s %+v",
					sel.Key, g, got.Digest(), got.Loops, want.Digest(), want.Loops)
			}
		}
	}

	shared, err := s.AnalysisOf(bin)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	if shared.UnknownProfileIDs != 0 || len(shared.Loops) != len(fresh.Loops) {
		t.Fatalf("memoised analysis: %d unknown profile IDs, %d loops; a fresh one has %d loops",
			shared.UnknownProfileIDs, len(shared.Loops), len(fresh.Loops))
	}
	type verdict struct {
		Class                           analyzer.Class
		Rejected                        analyzer.Check
		Selected, DepProfiled, Observed bool
		Coverage, Excl, AvgIter         float64
	}
	of := func(li *analyzer.LoopInfo) verdict {
		return verdict{li.Class, li.Rejected, li.Selected, li.DepProfiled, li.ObservedDep, li.Coverage, li.ExclCoverage, li.AvgIter}
	}
	for i, li := range shared.Loops {
		if got, want := of(li), of(fresh.Loops[i]); got != want {
			t.Errorf("loop %d: the memoised analysis reads %+v after the plans, a fresh Analyze %+v", i, got, want)
		}
	}
}

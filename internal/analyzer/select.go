package analyzer

import "janus/internal/cfg"

// SelectOptions configures loop selection, mapping onto the paper's
// figure-7 configurations.
type SelectOptions struct {
	// UseProfile filters statically parallel loops by coverage.
	UseProfile bool
	// MinCoverage is the profiled-coverage threshold below which a loop
	// is not worth parallelising (only with UseProfile).
	MinCoverage float64
	// UseChecks admits dynamic-DOALL (type C) loops guarded by runtime
	// bounds checks and speculation.
	UseChecks bool
}

// DefaultMinCoverage matches the paper's low-coverage filter intent.
const DefaultMinCoverage = 0.01

// DefaultMinAvgIter is the profitability floor on profiled mean
// iterations per invocation: with UseProfile, a loop whose mean trip
// count is below it cannot amortise per-invocation overheads.
const DefaultMinAvgIter = 96

// SelectLoops marks the loops to parallelise and returns them. Within
// each loop nest only one loop is chosen: the outermost type-A loop,
// failing that the outermost type-C loop (paper §II-D). Selection
// prefers loops with statically known iteration counts and single
// exits; loops violating those are skipped because the runtime cannot
// schedule them safely.
func (p *Program) SelectLoops(opts SelectOptions) []*LoopInfo {
	for _, li := range p.Loops {
		li.Selected = false
	}
	var selected []*LoopInfo
	// Process loop nests: roots first; descend only when the parent was
	// not selected.
	var roots []*cfg.Loop
	for _, li := range p.Loops {
		if li.Loop.Parent == nil {
			roots = append(roots, li.Loop)
		}
	}
	var walk func(l *cfg.Loop) bool
	walk = func(l *cfg.Loop) bool {
		li := p.byLoop[l]
		if li != nil && p.selectable(li, opts) {
			li.Selected = true
			selected = append(selected, li)
			return true
		}
		any := false
		for _, c := range l.Children {
			if walk(c) {
				any = true
			}
		}
		return any
	}
	for _, r := range roots {
		walk(r)
	}
	return selected
}

// selectable applies the per-loop eligibility rules.
func (p *Program) selectable(li *LoopInfo, opts SelectOptions) bool {
	switch li.Class {
	case ClassStaticDOALL:
		// eligible
	case ClassDynDOALL:
		if !opts.UseChecks {
			return false
		}
		// A type-C loop is only safe if every ambiguity is closed: all
		// cross-base pairs have checks and every residual unanalysable
		// access or library call is covered by speculation. Loops whose
		// checks could not be constructed need dependence profiling to
		// have confirmed independence.
		if li.Dep.CheckFailed && !li.DepProfiled {
			return false
		}
		if li.DepProfiled && li.ObservedDep {
			return false
		}
		// Unanalysable plain accesses (not library code) can only be
		// speculated on; without dependence profiling the abort rate is
		// unknown, so require profiling to have cleared them.
		if len(li.Dep.Unanalyzable) > 0 && !li.DepProfiled {
			return false
		}
	default:
		return false
	}
	// Scheduling requirements: recognised trip count and single exit.
	if li.Sym.Trip == nil || li.Sym.Trip.Num.Unknown {
		return false
	}
	if len(li.Loop.Exits) != 1 {
		return false
	}
	// The loop must be entered through a unique preheader so LOOP_INIT
	// has a well-defined trigger point.
	if li.Sym.Preheader == nil {
		return false
	}
	if opts.UseProfile {
		if li.Coverage < opts.MinCoverage {
			return false
		}
		// A loop entered many times for a handful of iterations pays
		// LOOP_INIT/FINISH on every invocation: the paper's profile
		// stage exists exactly to reject these.
		if li.AvgIter > 0 && li.AvgIter < DefaultMinAvgIter {
			return false
		}
	}
	return true
}

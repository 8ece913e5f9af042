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
// schedule them safely. Every loop's Rejected is left naming the check
// it failed, or "" when it is selected; a type-A or type-C loop's
// verdict from an earlier SelectLoops is replaced.
func (p *Program) SelectLoops(opts SelectOptions) []*LoopInfo {
	var selected []*LoopInfo
	// Process loop nests from their roots; underSelected is set below
	// a selected loop.
	var walk func(l *cfg.Loop, underSelected bool)
	walk = func(l *cfg.Loop, underSelected bool) {
		li := p.Loops[l.ID]
		li.Rejected = p.selectable(li, opts)
		if li.Rejected == "" && underSelected {
			li.Rejected = Nested
		}
		li.Selected = li.Rejected == ""
		if li.Selected {
			selected = append(selected, li)
		}
		for _, c := range l.Children {
			walk(c, underSelected || li.Selected)
		}
	}
	for _, li := range p.Loops {
		if li.Loop.Parent == nil {
			walk(li.Loop, false)
		}
	}
	return selected
}

// selectable returns the first check li fails, or "" when it is
// eligible; loops outside types A and C keep their earlier verdict.
func (p *Program) selectable(li *LoopInfo, opts SelectOptions) Check {
	switch li.Class {
	case ClassStaticDOALL:
		// eligible
	case ClassDynDOALL:
		if !opts.UseChecks {
			return ChecksOff
		}
		// A type-C loop is only safe if every ambiguity is closed: all
		// cross-base pairs have checks and every residual unanalysable
		// access or library call is covered by speculation. Loops whose
		// checks could not be constructed need dependence profiling to
		// have confirmed independence.
		if li.Dep.CheckFailed && !li.DepProfiled {
			return Unchecked
		}
		// Unanalysable plain accesses (not library code) can only be
		// speculated on; without dependence profiling the abort rate is
		// unknown, so require profiling to have cleared them.
		if len(li.Dep.Unanalyzable) > 0 && !li.DepProfiled {
			return Unanalysable
		}
	default:
		return li.Rejected
	}
	// Scheduling requirements: a trip count computable before the loop,
	// which sym leaves unset for a loop with more than one exit.
	if li.Sym.Trip == nil || li.Sym.Trip.Num.Unknown {
		return UnknownTrip
	}
	// The loop must be entered through a unique preheader so LOOP_INIT
	// has a well-defined trigger point.
	if li.Sym.Preheader == nil {
		return NoPreheader
	}
	if opts.UseProfile {
		if li.Coverage < opts.MinCoverage {
			return LowCoverage
		}
		// A loop entered many times for a handful of iterations pays
		// LOOP_INIT/FINISH on every invocation: the paper's profile
		// stage exists exactly to reject these.
		if li.AvgIter > 0 && li.AvgIter < DefaultMinAvgIter {
			return FewIterations
		}
	}
	return ""
}

package janus

import (
	"encoding/binary"
	"fmt"
	"math"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/obj"
	"janus/internal/rules"
)

// Plan is the offline half of a Janus run (figure 1(a)'s static
// analyser box): the rewrite schedule a binary is to be executed under,
// with the per-loop facts the evaluation reads of the analysis that
// produced it. It is what the schedule-v1 artifact stores, so a process
// that finds a plan in the store runs the online half — the DBM under
// the schedule — without analysing, profiling or even loading the
// binary.
type Plan struct {
	// Schedule is the parallelisation rewrite schedule.
	Schedule *rules.Schedule
	// Loops summarises every analysed loop, indexed by loop ID.
	Loops []LoopSummary

	// image is Schedule in its file format and digest names those bytes
	// (scheduleDigest). Both are taken once, where the bytes exist
	// anyway — computePlan's Save, decodePlan's payload — and serve
	// every later use: the stored payload, figure 10's size, and the key
	// of each run under the plan. A plan is shared between every caller
	// that asks for it and is never modified.
	image  []byte
	digest string
}

// LoopSummary is what the figures read of one analysed loop.
type LoopSummary struct {
	// Class is the loop's category after dependence profiling (when
	// the plan trained).
	Class analyzer.Class
	// ExclCoverage is the profiled fraction of dynamic instructions
	// attributed to the loop as the innermost one (zero untrained).
	ExclCoverage float64
	// Selected marks the loop chosen for parallelisation.
	Selected bool
}

// Selected counts the loops the plan parallelises.
func (p *Plan) Selected() int {
	n := 0
	for _, l := range p.Loops {
		if l.Selected {
			n++
		}
	}
	return n
}

// Selection is the policy half of a plan: which loops of an analysed
// (and optionally trained) program to parallelise.
type Selection struct {
	// Key canonically names the policy and every knob of it; it is part
	// of the plan's disk key, so two policies that can select
	// differently must never share one.
	Key string
	// Train runs the training stage (coverage and dependence profiling)
	// and applies its results to the analysis before Select sees it.
	Train bool
	// Select marks the chosen loops (LoopInfo.Selected) on prog.
	Select func(prog *analyzer.Program)
}

// Selection is the Janus policy of cfg: the paper's loop selection
// under the figure-7 configuration knobs (UseProfile, UseChecks;
// nothing else of cfg influences a plan) at the default coverage
// threshold.
func (cfg Config) Selection() Selection {
	return janusSelections[b2i(cfg.UseProfile)][b2i(cfg.UseChecks)]
}

// janusSelections holds Config.Selection of every (UseProfile,
// UseChecks) pair, so a lookup formats no key.
var janusSelections = func() (t [2][2]Selection) {
	for _, useProfile := range []bool{false, true} {
		for _, useChecks := range []bool{false, true} {
			t[b2i(useProfile)][b2i(useChecks)] = Selection{
				Key:   fmt.Sprintf("janus profile=%t checks=%t mincov=%g", useProfile, useChecks, analyzer.DefaultMinCoverage),
				Train: useProfile || useChecks,
				Select: func(prog *analyzer.Program) {
					prog.SelectLoops(analyzer.SelectOptions{
						UseProfile:  useProfile,
						MinCoverage: analyzer.DefaultMinCoverage,
						UseChecks:   useChecks,
					})
				},
			}
		}
	}
	return t
}()

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// planKey names a plan as its disk key does: the two binaries and the
// policy. train is nil when the policy does not train or trains on ref
// itself.
type planKey struct {
	ref, train *obj.Binary
	sel        string
	trains     bool
}

// PlanCached returns the plan of ref under sel: from memory, from c when
// it holds one for (ref identity, train identity or "self"/"none",
// sel.Key) — in which case neither binary is analysed, profiled or
// loaded — and otherwise by analysing ref, training on train when
// sel.Train (nil train profiles ref itself; the profile is the
// profile-v1 stage), selecting and generating the schedule, then
// publishing it. Nil c keeps the memory tier alone.
func (s *Session) PlanCached(c *artcache.Cache, ref, train *obj.Binary, sel Selection) (*Plan, error) {
	plan, _, err := s.orDefault().planCached(c, ref, train, sel)
	return plan, err
}

// planCached is PlanCached that also reports whether this call computed
// the plan: then neither memory nor c held it, nor, most likely, what
// it is derived from.
func (s *Session) planCached(c *artcache.Cache, ref, train *obj.Binary, sel Selection) (plan *Plan, computed bool, err error) {
	bins, trainedOn := []*obj.Binary{ref}, "none"
	switch {
	case !sel.Train:
		train = nil
	case train == nil:
		trainedOn = "self"
	default:
		bins = append(bins, train)
	}
	plan, err = staged(&s.plans, c, planKey{ref, train, sel.Key, sel.Train}, bins, func(ids []string) artcache.Key {
		k := artcache.Key{Binary: ids[0], Input: trainedOn, Config: sel.Key}
		if len(ids) > 1 {
			k.Input = ids[1]
		}
		return k
	}, func() (*Plan, error) {
		computed = true
		return s.computePlan(c, ref, train, sel)
	})
	return plan, computed, err
}

// computePlan is the static analyser's pass over ref: figure 1(a) left
// to right up to the rewrite schedule. ref's analysis is the session's
// memoised one, which every plan of ref shares; the plan's training
// results and selection go to a fork of it.
func (s *Session) computePlan(c *artcache.Cache, ref, train *obj.Binary, sel Selection) (*Plan, error) {
	var (
		prog     *analyzer.Program
		pr       *ProfileResult
		err      error
		trainErr error
	)
	// A distinct train binary's analysis and profile depend on train
	// alone: when memory does not hold the profile, take it here while
	// ref's analysis, the shorter stage, runs beside it unless memory
	// holds that too. A failure of ref's outranks train's.
	beside := sel.Train && train != nil && !s.profile.Has(train)
	var analysed *started[*analyzer.Program]
	if beside && !s.analyze.Has(ref) {
		analysed = start(func() (*analyzer.Program, error) { return s.refAnalysis(ref) })
		defer analysed.wait()
	}
	if beside {
		pr, trainErr = s.trainProfile(c, train)
	}
	if analysed != nil {
		prog, err = analysed.join()
	} else {
		prog, err = s.refAnalysis(ref)
	}
	if err != nil {
		return nil, err
	}

	// Training stage (optional, figure 1(a) left).
	if sel.Train {
		switch {
		case beside: // taken above
		case train != nil:
			pr, trainErr = s.trainProfile(c, train)
		default:
			if pr, trainErr = s.runProfiling(c, ref, prog); trainErr != nil {
				trainErr = fmt.Errorf("janus: profiling: %w", trainErr)
			}
		}
		if trainErr != nil {
			return nil, trainErr
		}
	}

	prog = prog.Fork()
	if sel.Train {
		// Loop IDs are assigned deterministically from the same binary
		// layout, so train results map directly onto ref analysis.
		prog.ApplyCoverage(pr.Coverage)
		prog.ApplyExclCoverage(pr.ExclCoverage)
		prog.ApplyAvgIters(pr.AvgIters)
		prog.ApplyDependences(pr.Dependences)
	}
	sel.Select(prog)
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		return nil, fmt.Errorf("janus: schedule generation: %w", err)
	}
	img, err := sched.Save()
	if err != nil {
		return nil, fmt.Errorf("janus: schedule generation: %w", err)
	}
	loops := make([]LoopSummary, len(prog.Loops))
	for i, li := range prog.Loops {
		loops[i] = LoopSummary{Class: li.Class, ExclCoverage: li.ExclCoverage, Selected: li.Selected}
	}
	return &Plan{Schedule: sched, Loops: loops, image: img, digest: scheduleDigest(img)}, nil
}

// Plan payload: u32 schedule length, the schedule in its own file
// format (rules.Save — the bytes `janus schedule -o` writes), u32 loop
// count, then per loop class u8, exclusive coverage f64 bits, selected
// u8; all little-endian.
const loopSummarySize = 1 + 8 + 1

func encodePlan(p *Plan) ([]byte, error) {
	img := p.image // every plan reaching the tier is computePlan's
	out := make([]byte, 0, 8+len(img)+loopSummarySize*len(p.Loops))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(img)))
	out = append(out, img...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Loops)))
	for _, l := range p.Loops {
		out = append(out, byte(l.Class))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(l.ExclCoverage))
		sel := byte(0)
		if l.Selected {
			sel = 1
		}
		out = append(out, sel)
	}
	return out, nil
}

func decodePlan(data []byte) (*Plan, error) {
	bad := func(what string) (*Plan, error) {
		return nil, fmt.Errorf("janus: decode cached plan: %s", what)
	}
	if len(data) < 4 {
		return bad("truncated")
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > len(data)-4 {
		return bad("schedule length past the payload")
	}
	// Load accepts exactly one schedule's bytes, so the digest below
	// covers nothing but what was parsed.
	img := data[:n:n]
	sched, err := rules.Load(img)
	if err != nil {
		return nil, fmt.Errorf("janus: decode cached plan: %w", err)
	}
	data = data[n:]
	nloops := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) != loopSummarySize*nloops {
		return bad("loop summary size mismatch")
	}
	loops := make([]LoopSummary, nloops)
	for i := range loops {
		rec := data[i*loopSummarySize:]
		loops[i] = LoopSummary{
			Class:        analyzer.Class(rec[0]),
			ExclCoverage: math.Float64frombits(binary.LittleEndian.Uint64(rec[1:])),
			Selected:     rec[9] == 1,
		}
	}
	return &Plan{Schedule: sched, Loops: loops, image: img, digest: scheduleDigest(img)}, nil
}

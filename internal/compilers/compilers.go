// Package compilers models the source-level auto-parallelising
// compilers Janus is compared against in figure 11: a conservative
// "gcc -ftree-parallelize-loops" baseline and a more aggressive
// vectorising "icc -parallel" baseline.
//
// A source compiler sees the program before code generation, so it pays
// no dynamic-translation or dispatch overhead and its parallel code is
// baked in. It is, however, conservative: gcc-like parallelisation only
// transforms loops provably independent at compile time (our type A),
// while icc-like parallelisation additionally emits multi-versioned
// loops guarded by runtime checks (our type C with checks). Neither
// profiles, so both also parallelise unprofitable loops.
//
// Both baselines reuse the same analysis and execution substrate with a
// zero-translation cost model, which is exactly what "the compiler did
// it statically" means in this simulator.
package compilers

import (
	"fmt"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/vm"
)

// Kind selects the modelled compiler.
type Kind int

const (
	// GCC models gcc -O3 -ftree-parallelize-loops=N -floop-parallelize-all.
	GCC Kind = iota
	// ICC models icc -O3 -parallel.
	ICC
)

func (k Kind) String() string {
	if k == GCC {
		return "gcc"
	}
	return "icc"
}

// staticCost is the cost model for statically-generated parallel code:
// no translation, no dispatch, leaner fork/join than a DBM (the
// compiler emits the threading calls directly).
func staticCost() dbm.CostModel {
	c := dbm.DefaultCost()
	c.TransPerInst = 0
	c.Dispatch = 0
	c.LoopInitBase = 2500
	c.LoopInitPerThread = 600
	c.LoopFinishBase = 1200
	c.LoopFinishPerThread = 250
	return c
}

// Result is a compiler-parallelisation outcome.
type Result struct {
	// Speedup is parallel performance normalised to the same binary's
	// native sequential execution.
	Speedup float64
	// LoopsParallelised counts the transformed loops.
	LoopsParallelised int
}

// Engine selects the DBM region execution for the modelled compiler's
// simulated run. Results are bit-identical under every setting;
// callers thread their engine choice through so a single-goroutine
// (or one-piece-per-thread) A/B run really is one end to end.
type Engine struct {
	// HostParallel runs eligible parallel regions on host goroutines.
	HostParallel bool
	// WorkStealing subdivides host-parallel regions for work stealing
	// (dbm.Config.WorkStealing).
	WorkStealing bool
}

// Parallelise runs the modelled compiler over exe with the given thread
// count and returns the achieved speedup.
func Parallelise(kind Kind, exe *obj.Executable, threads int, eng Engine, libs ...*obj.Library) (*Result, error) {
	return ParalleliseBinary(nil, nil, kind, janus.BinaryOf(exe, libs...), threads, eng)
}

// selection is the model's loop-selection policy. No profiling:
// compilers select on static heuristics alone. gcc: static DOALL only.
// icc: also runtime-checked multi-versioned loops (type C with
// constructible checks) — but never speculation, so loops with library
// calls stay sequential.
func (k Kind) selection() janus.Selection {
	return janus.Selection{
		Key: "model=" + k.String(),
		Select: func(prog *analyzer.Program) {
			prog.SelectLoops(analyzer.SelectOptions{UseChecks: k == ICC})
			for _, li := range prog.Loops {
				// icc cannot speculate on opaque library code: it gives up
				// on loops that would need transactions. gcc's
				// tree-parallelizer gives up on loops with any call.
				if li.Selected && (len(li.LibCalls) > 0 || k == GCC && len(li.Loop.CallTargets) > 0) {
					li.Selected = false
				}
			}
		},
	}
}

// ParalleliseBinary runs the modelled compiler over bin in session s
// (nil is the process default), backed by a durable artifact cache. The
// model owns only its loop selection and cost model; the plan, the
// native baseline and the simulated run are janus's cached stages, so
// the baseline is the one Janus's own rows of the same binary use, a
// warm store replays plan and run instead of analysing and simulating,
// and the run is verified against native execution like every Janus run.
func ParalleliseBinary(s *janus.Session, c *artcache.Cache, kind Kind, bin *obj.Binary, threads int, eng Engine) (*Result, error) {
	plan, err := s.PlanCached(c, bin, nil, kind.selection())
	if err != nil {
		return nil, err
	}
	cfg := dbm.Config{
		Threads:          threads,
		Parallel:         true,
		HostParallel:     eng.HostParallel,
		WorkStealing:     eng.WorkStealing,
		MinIterPerThread: 4,
		MaxSteps:         vm.DefaultMaxSteps,
		Cost:             staticCost(),
	}
	native, res, err := s.RunPlanBinary(c, bin, plan, cfg)
	if err != nil {
		return nil, err
	}
	if err := janus.Verify(native, res); err != nil {
		return nil, fmt.Errorf("compilers: %s model of %s: %w", kind, plan.Schedule.ExeName, err)
	}
	return &Result{
		Speedup:           float64(native.Cycles) / float64(res.Cycles),
		LoopsParallelised: plan.Selected(),
	}, nil
}

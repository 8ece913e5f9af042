// Package janus is a Go reproduction of "Janus: Statically-Driven and
// Profile-Guided Automatic Dynamic Binary Parallelisation" (Zhou &
// Jones, CGO 2019): a static binary analyser that encodes loop
// parallelisation as rewrite schedules, and a dynamic binary modifier
// that applies them just-in-time, with runtime bounds checks and
// software-transactional speculation guarding the cases static analysis
// cannot prove.
//
// The package exposes the whole figure-1(a) flow:
//
//	exe, libs, err := workloads.Build(...)     // or any guest binary
//	rep, err := janus.Parallelise(exe, janus.Config{Threads: 8}, libs...)
//	fmt.Println(rep.Speedup())
//
// Parallelise runs the optional training stage (coverage profiling,
// then dependence profiling), selects loops, generates the
// parallelisation rewrite schedule, executes the binary under the DBM,
// and validates the result against native execution.
package janus

import (
	"fmt"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
)

// Config selects a parallelisation configuration (the four bars of the
// paper's figure 7 correspond to: nothing enabled with Parallel=false;
// static only; static+profile; static+profile+checks).
type Config struct {
	// Threads is the number of parallel threads (default 8).
	Threads int
	// UseProfile enables the training stage: coverage profiling filters
	// unprofitable loops, dependence profiling classifies ambiguous
	// ones.
	UseProfile bool
	// UseChecks admits dynamic-DOALL loops guarded by runtime checks
	// and speculation.
	UseChecks bool
	// TrainExe, when non-nil, is a build of the same program with
	// training inputs used for the profiling stage (the paper profiles
	// with train inputs and evaluates with ref inputs). Parallelise
	// reads it; ParalleliseBinary takes the train binary as a handle.
	TrainExe *obj.Executable
	// Verify compares the DBM run's outputs and final memory image
	// against native execution and fails on mismatch. The zero value
	// skips the comparison; the evaluation harness sets it on every run.
	Verify bool
	// Cache, when non-nil, is the durable artifact tier: plans (the
	// rewrite schedule with its loop summary), native baselines,
	// training profiles and DBM results are looked up on disk by
	// content identity before being recomputed, and published after.
	// Results are byte-identical with or without it. Nil disables the
	// tier; the in-memory memos still apply.
	Cache *artcache.Cache
	// Session holds the memoised stages; nil is the process default.
	Session *Session
}

// Report is the outcome of a full Janus run.
type Report struct {
	Schedule *rules.Schedule
	Native   *vm.Result
	DBM      *dbm.Result
	Stats    dbm.Stats
	// ScheduleSize is Schedule's serialised size in bytes (figure 10's
	// numerator).
	ScheduleSize int
	// Selected is the number of loops parallelised.
	Selected int
	// CodeSize is the size of the binary's code section in bytes (what
	// figure 10 normalises Schedule.Size against).
	CodeSize int
}

// Speedup returns native-cycles / DBM-cycles (the paper's headline
// metric, normalised to native single-threaded execution).
func (r *Report) Speedup() float64 {
	if r.DBM == nil || r.DBM.Cycles == 0 {
		return 0
	}
	return float64(r.Native.Cycles) / float64(r.DBM.Cycles)
}

// Parallelise runs the complete Janus flow on exe: ParalleliseBinary on
// the handles of (exe, libs) and, when set, (cfg.TrainExe, libs).
func Parallelise(exe *obj.Executable, cfg Config, libs ...*obj.Library) (*Report, error) {
	var train *obj.Binary
	if cfg.TrainExe != nil {
		train = cfg.Session.BinaryOf(cfg.TrainExe, libs...)
	}
	return ParalleliseBinary(cfg.Session.BinaryOf(exe, libs...), train, cfg)
}

// ParalleliseBinary runs the complete Janus flow on ref in its two
// halves: the plan (PlanCached: static analysis, the optional training
// stage on train — nil profiles ref itself — loop selection and
// schedule generation) and its execution (RunPlanBinary), validated
// against native execution when cfg.Verify. ref's native baseline
// depends on nothing else, so when it is likely to be computed it runs
// beside the DBM run. With cfg.Cache warm both halves replay and neither
// binary's image is loaded. cfg.TrainExe is not read: train is its
// handle form.
func ParalleliseBinary(ref, train *obj.Binary, cfg Config) (*Report, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	s := cfg.Session.orDefault()
	plan, computed, err := s.planCached(cfg.Cache, ref, train, cfg.Selection())
	if err != nil {
		return nil, err
	}

	native, res, err := s.runSchedule(cfg.Cache, ref, plan.Schedule, plan.digest, dbm.DefaultConfig(cfg.Threads), computed || cfg.Cache == nil)
	if err != nil {
		return nil, err
	}

	if cfg.Verify {
		if err := Verify(native, res); err != nil {
			return nil, err
		}
	}
	return &Report{
		Schedule:     plan.Schedule,
		Native:       native,
		DBM:          res,
		Stats:        res.Stats,
		ScheduleSize: len(plan.image),
		Selected:     plan.Selected(),
		CodeSize:     ref.CodeSize(),
	}, nil
}

// RunPlanBinary is the online half of a Janus run: bin's native baseline
// and its run under plan's schedule and dcfg, each through its cached
// stage, so a binary shared with another run shares that run's baseline,
// a run asked for twice executes once, and a warm store replays both.
// Without a store, a baseline memory does not hold runs beside the DBM
// run. The run is keyed by the digest a plan of PlanCached's carries, so
// nothing is serialised or hashed here; any other plan runs uncached.
func (s *Session) RunPlanBinary(c *artcache.Cache, bin *obj.Binary, plan *Plan, dcfg dbm.Config) (*vm.Result, *dbm.Result, error) {
	return s.orDefault().runSchedule(c, bin, plan.Schedule, plan.digest, dcfg, c == nil)
}

// RunScheduleBinary is the process default's RunPlanBinary for callers
// that bring a bare rewrite schedule (`janus run -schedule`): sched is
// serialised and hashed once per call to key the run; one that does not
// serialise runs uncached.
func RunScheduleBinary(c *artcache.Cache, bin *obj.Binary, sched *rules.Schedule, dcfg dbm.Config) (*vm.Result, *dbm.Result, error) {
	var digest string // stays empty if sched does not serialise
	if sched == nil {
		digest = noSchedule
	} else if img, err := sched.Save(); err == nil {
		digest = scheduleDigest(img)
	}
	return process.Load().runSchedule(c, bin, sched, digest, dcfg, c == nil)
}

// runSchedule runs bin under sched, and bin's native baseline beside it
// when computing says the lookups beneath are likely to compute: no
// store to answer them, or a plan that none could (probing a store for
// the baseline instead cost a warm replay more than the overlap saves).
// A native failure outranks a DBM one.
func (s *Session) runSchedule(c *artcache.Cache, bin *obj.Binary, sched *rules.Schedule, digest string, dcfg dbm.Config, computing bool) (*vm.Result, *dbm.Result, error) {
	var baseline *started[*vm.Result]
	if computing {
		baseline = s.startNative(c, bin)
	}
	defer baseline.wait()
	res, dbmErr := s.runDBM(c, bin, sched, digest, dcfg)
	native, err := s.joinNative(baseline, c, bin)
	if err != nil {
		return nil, nil, fmt.Errorf("janus: native run: %w", err)
	}
	if dbmErr != nil {
		return nil, nil, fmt.Errorf("janus: DBM run: %w", dbmErr)
	}
	return native, res, nil
}

// Verify compares a DBM result against native execution of the same
// binary: outputs and final memory image. It reads res.DataHash rather
// than asking a live Executor: the two are the same hash (Run records
// ex.DataHash() into the Result), and a cache-replayed result has no
// Executor behind it.
func Verify(native *vm.Result, res *dbm.Result) error {
	if len(native.Output) != len(res.Output) {
		return fmt.Errorf("janus: verification failed: %d outputs vs %d native", len(res.Output), len(native.Output))
	}
	for i := range native.Output {
		if native.Output[i] != res.Output[i] {
			return fmt.Errorf("janus: verification failed: output %d is %#x, native %#x", i, res.Output[i], native.Output[i])
		}
	}
	if res.DataHash != native.DataHash {
		return fmt.Errorf("janus: verification failed: final memory image differs from native")
	}
	return nil
}

// ProfileResult carries the outcomes of the training stage.
type ProfileResult struct {
	// Coverage is the per-loop fraction of dynamic instructions
	// (inclusive: nested loops attribute to every enclosing level).
	Coverage map[int]float64
	// ExclCoverage attributes each instruction to its innermost loop.
	ExclCoverage map[int]float64
	// AvgIters is mean iterations per invocation.
	AvgIters map[int]float64
	// Dependences records, for each ambiguous loop that executed,
	// whether a cross-iteration dependence was observed.
	Dependences map[int]bool
}

// RunProfiling executes the statically-driven profiling stage (figure
// 1(a)'s training stage) over exe.
func RunProfiling(exe *obj.Executable, prog *analyzer.Program, libs ...*obj.Library) (*ProfileResult, error) {
	sched := prog.GenProfileSchedule()
	cfg := dbm.Config{Threads: 1, Profile: true, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}
	ex, err := dbm.New(exe, sched, cfg, libs...)
	if err != nil {
		return nil, err
	}
	defer ex.Close()
	if err := ex.Execute(); err != nil {
		return nil, err
	}
	deps := ex.Dep.Observed()
	// Every ambiguous loop that executed without an observed dependence
	// is confirmed independent.
	confirmed := map[int]bool{}
	for _, li := range prog.Loops {
		if li.Class == analyzer.ClassDynDOALL || li.Class == analyzer.ClassDynDep {
			if ex.Cov.Invocations(li.ID) > 0 {
				confirmed[li.ID] = deps[li.ID]
			}
		}
	}
	return &ProfileResult{
		Coverage:     ex.Cov.Fractions(),
		ExclCoverage: ex.Cov.ExclusiveFractions(),
		AvgIters:     ex.Cov.AvgIters(),
		Dependences:  confirmed,
	}, nil
}

// RunNativeBaseline executes exe without any modification. The result
// is memoised per executable: native execution is deterministic, so
// repeated baseline runs of the same binary return the cached result.
func RunNativeBaseline(exe *obj.Executable, libs ...*obj.Library) (*vm.Result, error) {
	return RunNativeBaselineCached(nil, exe, libs...)
}

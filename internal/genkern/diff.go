package genkern

import (
	"errors"
	"fmt"

	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/vm"

	janus "janus"
)

// Options configures one differential run.
type Options struct {
	// Threads is the guest thread count (default 8).
	Threads int
	// PlantDOALL deliberately flips one statically-proven carried loop
	// to static-DOALL after analysis — a planted soundness bug the
	// engine-versus-native oracle must catch. Used by the self-test.
	PlantDOALL bool
	// Recovery additionally runs the work-stealing engine under
	// scan-defeat fault injection, exercising the checkpoint/rollback/
	// re-execute recovery path; the output must still match native, and
	// the cycles and data hash the round-robin run's.
	Recovery bool
}

// LoopVerdict pairs one loop's ground truth with what the pipeline
// concluded about it.
type LoopVerdict struct {
	ID    int
	Truth LoopTruth
	Class analyzer.Class
	// DepProfiled/ObservedDep mirror the analyzer record after the
	// training profile was applied.
	DepProfiled bool
	ObservedDep bool
	Selected    bool
	Coverage    float64
}

// EngineRun is one engine's execution outcome.
type EngineRun struct {
	Name     string
	Cycles   int64
	DataHash uint64
	Stats    dbm.Stats
}

// Report is the outcome of one kernel's differential run.
type Report struct {
	Seed     uint64
	Name     string
	Loops    []LoopVerdict
	Engines  []EngineRun
	Selected int
	// MissedPar counts loops the generator knows are independent and
	// statically analysable but the analyser classified as carrying a
	// dependence — a missed parallelisation, counted rather than fatal.
	MissedPar int
	// Planted is the loop whose class was deliberately flipped by
	// Options.PlantDOALL (nil otherwise).
	Planted *LoopVerdict
}

// repro returns the one-line command that reproduces this kernel's
// differential run; it is appended to every failure.
func repro(seed uint64) string {
	return fmt.Sprintf("repro: go test ./internal/genkern -run TestSeededCorpus -genkern.seed=%d", seed)
}

// Repro names the command that replays this kernel through the oracle:
// the seed form when the shape is seed-derived, the genome-hex form for
// fuzzer-built shapes (with -genkern.seed naming the input data).
func (k *Kernel) Repro() string {
	if k.seedDerived {
		return repro(k.Seed)
	}
	return shapeRepro(k.Shape, k.Seed)
}

func shapeRepro(sh Shape, seed uint64) string {
	return fmt.Sprintf("repro: go test ./internal/genkern -run TestShapeRepro -genkern.shape=%s -genkern.seed=%d", ShapeHex(sh), seed)
}

func (k *Kernel) failf(format string, args ...any) error {
	return fmt.Errorf("genkern: seed %d (%s): %s; %s", k.Seed, k.Name, fmt.Sprintf(format, args...), k.Repro())
}

// ErrPlantInert marks a PlantDOALL run where the planted
// mis-classification could not arm (no statically-proven carried loop,
// or the planted loop was not selected so the bug cannot reach the
// engines): the shape simply cannot exhibit the planted bug.
var ErrPlantInert = errors.New("planted mis-classification could not arm")

func (k *Kernel) failInert(format string, args ...any) error {
	return fmt.Errorf("genkern: seed %d (%s): %s: %w; %s", k.Seed, k.Name, fmt.Sprintf(format, args...), ErrPlantInert, k.Repro())
}

// DiffSeed generates the kernel named by seed and runs the full
// differential oracle over it.
func DiffSeed(seed uint64, o Options) (*Report, error) {
	k, err := Generate(seed)
	if err != nil {
		return nil, err
	}
	return RunDiff(k, o)
}

// DiffShape generates the kernel described by shape (with seed naming
// only its input data) and runs the full differential oracle over it.
func DiffShape(shape Shape, seed uint64, o Options) (*Report, error) {
	k, err := GenerateShape(shape, seed)
	if err != nil {
		return nil, err
	}
	return RunDiff(k, o)
}

// RunDiff runs the three-way differential oracle for one kernel:
//
//  1. analyzer.Analyze's static verdict is checked against the
//     generator's ground truth (a carried loop classified static-DOALL
//     is a soundness bug; an independent loop classified static-dep is
//     a counted missed parallelisation),
//  2. the dependence profiler runs on the training build and must
//     observe exactly the dependences the generator planted (a miss or
//     a false positive is fatal),
//  3. the program executes under the round-robin engine and the
//     speculative engine at one piece per thread ("host-parallel") and
//     subdivided ("work-stealing"); all three must match native output and
//     final data hash byte-for-byte, agree on virtual cycles, and —
//     because selection may only pick truly independent loops — report
//     zero STM aborts and zero speculation recoveries.
//
// Every violation carries a one-line repro command naming the seed.
func RunDiff(k *Kernel, o Options) (*Report, error) {
	if o.Threads <= 0 {
		o.Threads = 8
	}
	rep := &Report{Seed: k.Seed, Name: k.Name}

	// Static verdict on the evaluation build.
	prog, err := analyzer.Analyze(k.Ref)
	if err != nil {
		return nil, k.failf("static analysis: %v", err)
	}
	// Training stage: profile the train build, map results onto the ref
	// analysis (identical layout => identical loop IDs, verified at
	// generation time).
	trainProg, err := analyzer.Analyze(k.Train)
	if err != nil {
		return nil, k.failf("train analysis: %v", err)
	}
	profile, err := janus.RunProfiling(k.Train, trainProg, k.Libs...)
	if err != nil {
		return nil, k.failf("profiling: %v", err)
	}
	prog.ApplyCoverage(profile.Coverage)
	prog.ApplyExclCoverage(profile.ExclCoverage)
	prog.ApplyAvgIters(profile.AvgIters)
	prog.ApplyDependences(profile.Dependences)
	if prog.UnknownProfileIDs != 0 {
		return nil, k.failf("%d profile records named unknown loop IDs (train/ref layout skew)", prog.UnknownProfileIDs)
	}

	// Ground-truth <-> analysis mapping: every analysed loop must be
	// one the generator emitted, and vice versa.
	if len(prog.Loops) != len(k.Truth) {
		return nil, k.failf("analyser found %d loops, generator emitted %d", len(prog.Loops), len(k.Truth))
	}
	var planted *analyzer.LoopInfo
	for _, li := range prog.Loops {
		t := k.TruthByHeader(li.Loop.Header.Addr)
		if t == nil {
			return nil, k.failf("analyser loop %d at %#x matches no generated loop", li.ID, li.Loop.Header.Addr)
		}

		// Lattice invariant 1 (analyzer soundness): a loop with a real
		// carried dependence must never be proven statically parallel.
		if t.Carried && li.Class == analyzer.ClassStaticDOALL {
			return nil, k.failf("SOUNDNESS: %s loop at %#x carries a distance dependence but the analyser classified it %v", t.Kind, t.Header, li.Class)
		}
		// Incompatible shapes (syscalls, non-affine induction) must be
		// rejected outright.
		if t.Incompatible && li.Class != analyzer.ClassIncompatible {
			return nil, k.failf("SOUNDNESS: %s loop at %#x must be incompatible but was classified %v", t.Kind, t.Header, li.Class)
		}
		// Lattice invariant 2 (profiler): profiled loops must observe
		// exactly the dependences the generator planted. The generated
		// inputs are dependence-consistent between train and ref, so a
		// divergence in either direction is a profiler bug.
		if li.DepProfiled {
			if t.Carried && !li.ObservedDep {
				return nil, k.failf("PROFILER MISS: %s loop at %#x has a planted dependence the dependence profiler did not observe", t.Kind, t.Header)
			}
			if !t.Carried && li.ObservedDep {
				return nil, k.failf("PROFILER FALSE POSITIVE: independent %s loop at %#x was profiled as dependent", t.Kind, t.Header)
			}
		}
		// Missed parallelisation: statically analysable, truly
		// independent, yet classified as carrying a dependence.
		if !t.Carried && !t.Ambiguous && !t.Incompatible && li.Class == analyzer.ClassStaticDep {
			rep.MissedPar++
		}
		if o.PlantDOALL && planted == nil && t.Carried && li.Class == analyzer.ClassStaticDep {
			planted = li
		}
	}

	if o.PlantDOALL {
		if planted == nil {
			return nil, k.failInert("plant requested but no statically-proven carried loop exists in this kernel")
		}
		// The planted soundness bug: promote a known-carried loop to
		// static-DOALL, exactly what a broken dependence test would do.
		planted.Class = analyzer.ClassStaticDOALL
	}

	prog.SelectLoops(analyzer.SelectOptions{
		UseProfile:  true,
		MinCoverage: analyzer.DefaultMinCoverage,
		UseChecks:   true,
	})

	for _, li := range prog.Loops {
		t := k.TruthByHeader(li.Loop.Header.Addr)
		// Lattice invariant 3 (selection): only truly independent loops
		// may be parallelised — except the deliberately planted one,
		// whose mis-execution the engine oracle below must catch.
		if li.Selected && t.Carried && li != planted {
			return nil, k.failf("SOUNDNESS: selection parallelised %s loop at %#x despite its carried dependence", t.Kind, t.Header)
		}
		if li.Selected != (li.Rejected == "") {
			return nil, k.failf("VERDICT: %s loop at %#x has Selected %v but Rejected %q", t.Kind, t.Header, li.Selected, li.Rejected)
		}
		v := LoopVerdict{
			ID: li.ID, Truth: *t, Class: li.Class,
			DepProfiled: li.DepProfiled, ObservedDep: li.ObservedDep,
			Selected: li.Selected, Coverage: li.Coverage,
		}
		if li == planted {
			rep.Planted = &v
		}
		rep.Loops = append(rep.Loops, v)
		if li.Selected {
			rep.Selected++
		}
	}
	if o.PlantDOALL && rep.Planted != nil && !rep.Planted.Selected {
		return nil, k.failInert("planted loop was not selected (coverage %.3f): the plant cannot reach the engines", rep.Planted.Coverage)
	}

	sched, err := prog.GenParallelSchedule()
	if err != nil {
		return nil, k.failf("schedule generation: %v", err)
	}
	native, err := janus.RunNativeBaseline(k.Ref, k.Libs...)
	if err != nil {
		return nil, k.failf("native baseline: %v", err)
	}

	// Engine matrix: the deterministic round-robin engine, and the
	// speculative engine with static chunks (one piece per thread) and
	// with work stealing. All three must agree with native and with
	// each other.
	type engineCfg struct {
		name         string
		hostParallel bool
		stealing     bool
		inject       string
	}
	cfgs := []engineCfg{
		{name: "round-robin"},
		{name: "host-parallel", hostParallel: true},
		{name: "work-stealing", hostParallel: true, stealing: true},
	}
	if o.Recovery {
		cfgs = append(cfgs, engineCfg{name: "work-stealing+inject", hostParallel: true, stealing: true, inject: "scan-defeat"})
	}
	for _, ec := range cfgs {
		dcfg := dbm.DefaultConfig(o.Threads)
		dcfg.HostParallel = ec.hostParallel
		dcfg.WorkStealing = ec.stealing
		if ec.inject != "" {
			plan, perr := faultinject.ParsePlan(ec.inject)
			if perr != nil {
				return nil, k.failf("injection plan: %v", perr)
			}
			dcfg.Inject = plan
		}
		ex, err := dbm.New(k.Ref, sched, dcfg, k.Libs...)
		if err != nil {
			return nil, k.failf("%s: DBM construction: %v", ec.name, err)
		}
		res, err := ex.Run()
		ex.Close()
		if err != nil {
			return nil, k.failf("%s: DBM run: %v", ec.name, err)
		}
		run := EngineRun{Name: ec.name, Cycles: res.Cycles, DataHash: res.DataHash, Stats: res.Stats}
		rep.Engines = append(rep.Engines, run)

		// Lattice invariant 4 (execution): byte-identical behaviour.
		if err := compareToNative(native, res, run.DataHash); err != nil {
			if o.PlantDOALL {
				// The planted bug reached execution and the oracle
				// caught it: report it as the (expected) failure.
				return rep, k.failf("PLANTED BUG CAUGHT on %s: %v", ec.name, err)
			}
			return nil, k.failf("DIVERGENCE on %s: %v", ec.name, err)
		}
		// Lattice invariant 5 (speculation): selection admitted only
		// independent loops, so speculative execution must be
		// conflict-free — no STM aborts, no rollback recoveries.
		if ec.inject == "" {
			if run.Stats.TxAborts != 0 {
				return nil, k.failf("SPECULATION: %s reported %d STM aborts on a dependence-free schedule", ec.name, run.Stats.TxAborts)
			}
			if run.Stats.ParRecoveries != 0 {
				return nil, k.failf("SPECULATION: %s reported %d recoveries without fault injection", ec.name, run.Stats.ParRecoveries)
			}
		}
	}
	if o.PlantDOALL {
		// Every engine executed the planted mis-classification without
		// diverging from native: the oracle has a blind spot.
		return rep, k.failf("PLANTED BUG ESCAPED: all engines matched native despite the forced mis-classification")
	}

	// Cross-engine agreement on the simulated timeline, recovered runs
	// included: a failed region re-executes round-robin from its
	// checkpoint, and nothing of the failed attempt is charged.
	base := rep.Engines[0]
	for _, run := range rep.Engines[1:] {
		if run.Cycles != base.Cycles {
			return nil, k.failf("DIVERGENCE: %s simulated %d cycles, %s %d", run.Name, run.Cycles, base.Name, base.Cycles)
		}
		if run.DataHash != base.DataHash {
			return nil, k.failf("DIVERGENCE: %s final data hash %#x, %s %#x", run.Name, run.DataHash, base.Name, base.DataHash)
		}
	}
	return rep, nil
}

// compareToNative asserts the DBM result is byte-identical to native
// execution: same output stream (the self-checksums) and same final
// data image.
func compareToNative(native *vm.Result, res *dbm.Result, dataHash uint64) error {
	if len(native.Output) != len(res.Output) {
		return fmt.Errorf("%d outputs vs %d native", len(res.Output), len(native.Output))
	}
	for i := range native.Output {
		if native.Output[i] != res.Output[i] {
			return fmt.Errorf("output word %d is %#x, native %#x (self-checksum mismatch)", i, res.Output[i], native.Output[i])
		}
	}
	if dataHash != native.DataHash {
		return fmt.Errorf("final data image differs from native")
	}
	return nil
}

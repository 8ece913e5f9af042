package dbm_test

// Recovery tests for the speculative region engine, at one piece per
// thread ("static") and subdivided for work stealing ("steal"): under
// every deterministic fault-injection point, a run whose speculative
// regions fail must roll back, re-execute round-robin and finish bit-identical
// to a run that never left the round-robin engine — same simulated
// result AND same stats (minus the engine/recovery counters that
// legitimately record which path ran). This is where recovery is
// tested: dbm.Config.Inject is the only way to arm a region fault.
// Run with -race these double as race tests for the checkpoint save
// hook, the charge journal and the cache-clearing recovery path under
// real concurrency.

import (
	"fmt"
	"runtime"
	"testing"

	"janus"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// runInjected runs the speculative engine, at one piece per thread or
// subdivided, armed with the given injection plan.
func runInjected(t *testing.T, name string, stealing bool, plan *faultinject.Plan) *dbm.Result {
	t.Helper()
	cfg := dbm.DefaultConfig(8)
	cfg.WorkStealing = stealing
	cfg.Inject = plan
	return runConfig(t, name, cfg)
}

// sansRecoveryStats additionally clears the recovery counters: an
// injected run records recoveries and demotions by design, everything
// else must match the pure round-robin run exactly.
func sansRecoveryStats(s dbm.Stats) dbm.Stats {
	s = sansEngineStats(s)
	s.ParRecoveries = 0
	s.DemotedLoops = 0
	return s
}

// injectionSpecs covers every injection point. worker-panic doubles as
// the panic-containment test: the forced panic must surface as a
// recovered region failure, never crash the process or the test.
var injectionSpecs = []string{"scan-defeat", "worker-panic", "stall", "budget"}

// recoveryPlan is one row of the recovery matrix: a parallelisable
// benchmark's ref build at one opt level under a static or a
// profiled-and-checked plan, and the round-robin run that every
// injected run of it must equal.
type recoveryPlan struct {
	name  string
	exe   *obj.Executable
	libs  []*obj.Library
	sched *rules.Schedule
	rr    *dbm.Result
}

// run executes the plan's schedule under cfg.
func (p *recoveryPlan) run(t *testing.T, cfg dbm.Config) *dbm.Result {
	t.Helper()
	ex, err := dbm.New(p.exe, p.sched, cfg, p.libs...)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	defer ex.Close()
	res, err := ex.Run()
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return res
}

// recoveryPlans builds every row of the matrix, the plans as the
// harness's static-only and full runs make them (the profile from the
// train build), each with its round-robin run.
func recoveryPlans(t *testing.T) []*recoveryPlan {
	t.Helper()
	s := janus.NewSession(nil)
	var plans []*recoveryPlan
	for _, name := range workloads.ParallelisableNames() {
		for _, opt := range []workloads.OptLevel{workloads.O3, workloads.O3AVX} {
			ref, err := s.Open(nil, name, workloads.Ref, opt)
			if err != nil {
				t.Fatal(err)
			}
			train, err := s.Open(nil, name, workloads.Train, opt)
			if err != nil {
				t.Fatal(err)
			}
			exe, libs, err := ref.Image()
			if err != nil {
				t.Fatal(err)
			}
			for _, sel := range []struct {
				name string
				cfg  janus.Config
			}{{"static", janus.Config{}}, {"profiled+checked", janus.Config{UseProfile: true, UseChecks: true}}} {
				plan, err := s.PlanCached(nil, ref, train, sel.cfg.Selection())
				if err != nil {
					t.Fatal(err)
				}
				p := &recoveryPlan{name: name + "/" + opt.String() + "/" + sel.name, exe: exe, libs: libs, sched: plan.Schedule}
				cfg := dbm.DefaultConfig(8)
				cfg.HostParallel = false
				p.rr = p.run(t, cfg)
				plans = append(plans, p)
			}
		}
	}
	return plans
}

// TestRecoveryBitIdenticalPerPoint is the recovery matrix: every
// injection point, at both subdivision factors and at GOMAXPROCS 1 and
// N, over every parallelisable benchmark's ref build at O3 and O3AVX
// under a static and a profiled-and-checked plan. Each injected run
// must finish bit-identical to the plan's round-robin run, and each
// (point, factor, GOMAXPROCS) cell must have recovered and demoted at
// least once (an injection plan that never fires would pass the
// comparison vacuously). -short skips it: the fault-injection CI job
// runs it with and without the race detector, and a -race -short run of
// every package would only repeat the former.
func TestRecoveryBitIdenticalPerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("the recovery matrix; run without -short")
	}
	plans := recoveryPlans(t)
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, spec := range injectionSpecs {
		for _, tc := range []struct {
			factor   string
			stealing bool
		}{{"static", false}, {"steal", true}} {
			t.Run(spec+"/"+tc.factor, func(t *testing.T) {
				plan, err := faultinject.ParsePlan(spec)
				if err != nil {
					t.Fatal(err)
				}
				cfg := dbm.DefaultConfig(8)
				cfg.WorkStealing = tc.stealing
				cfg.Inject = plan
				for _, procs := range []int{1, max(runtime.NumCPU(), 4)} {
					t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
						runtime.GOMAXPROCS(procs)
						var recovered, demoted int64
						for _, p := range plans {
							inj := p.run(t, cfg)
							recovered += inj.Stats.ParRecoveries
							demoted += inj.Stats.DemotedLoops
							if inj.Stats.DemotedLoops > inj.Stats.ParRecoveries {
								t.Errorf("%s: more demotions (%d) than recoveries (%d)", p.name, inj.Stats.DemotedLoops, inj.Stats.ParRecoveries)
							}
							if !sameResult(p.rr, inj) {
								t.Errorf("%s: recovered run diverges from round-robin:\n round-robin %+v\n   recovered %+v", p.name, p.rr.Result, inj.Result)
							}
							if sansRecoveryStats(p.rr.Stats) != sansRecoveryStats(inj.Stats) {
								t.Errorf("%s: stats diverge after recovery:\n round-robin %+v\n   recovered %+v", p.name, p.rr.Stats, inj.Stats)
							}
						}
						if recovered == 0 {
							t.Errorf("injection %q never triggered a recovery", spec)
						}
						if demoted == 0 {
							t.Errorf("recovery ran %d times but demoted no loop", recovered)
						}
					})
				}
			})
		}
	}
}

// TestRecoverySparseInjection arms the injector on every third
// speculative region: recovered regions and untouched speculative
// regions must interleave without contaminating each other, and the
// demotion latch must keep each failed loop off the speculative path
// for the rest of the run.
func TestRecoverySparseInjection(t *testing.T) {
	rr := runEngine(t, "433.milc", false)
	plan, err := faultinject.ParsePlan("scan-defeat@3#42")
	if err != nil {
		t.Fatal(err)
	}
	inj := runInjected(t, "433.milc", true, plan)
	if inj.Stats.ParRecoveries == 0 {
		t.Fatal("sparse injection never triggered a recovery")
	}
	if !sameResult(rr, inj) {
		t.Errorf("recovered run diverges from round-robin:\n round-robin %+v\n   recovered %+v", rr.Result, inj.Result)
	}
	if sansRecoveryStats(rr.Stats) != sansRecoveryStats(inj.Stats) {
		t.Errorf("stats diverge after recovery:\n round-robin %+v\n   recovered %+v", rr.Stats, inj.Stats)
	}
}

// TestRecoveryDeterministicAcrossGOMAXPROCS pins the whole recovery
// path — which regions fail, how many recoveries run, which loops
// demote — as a deterministic function of the injection plan alone.
func TestRecoveryDeterministicAcrossGOMAXPROCS(t *testing.T) {
	plan, err := faultinject.ParsePlan("worker-panic")
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := runInjected(t, "470.lbm", true, plan)
	runtime.GOMAXPROCS(max(runtime.NumCPU(), 4))
	many := runInjected(t, "470.lbm", true, plan)

	if !sameResult(one, many) {
		t.Errorf("recovered results differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Result, many.Result)
	}
	if one.Stats != many.Stats {
		t.Errorf("recovery stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Stats, many.Stats)
	}
}

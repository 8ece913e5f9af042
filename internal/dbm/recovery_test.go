package dbm_test

// Recovery tests for the speculative region engine, at one piece per
// thread ("static") and subdivided for work stealing ("steal"): under
// every deterministic fault-injection point, a run whose speculative
// regions fail must roll back, re-execute round-robin and finish bit-identical
// to a run that never left the round-robin engine — same simulated
// result AND same stats (minus the engine/recovery counters that
// legitimately record which path ran). Run with -race these double as
// race tests for the checkpoint save hook, the charge journal and the
// cache-clearing recovery path under real concurrency.

import (
	"runtime"
	"testing"

	"janus/internal/dbm"
	"janus/internal/faultinject"
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

func TestRecoveryBitIdenticalPerPoint(t *testing.T) {
	rr := runEngine(t, "470.lbm", false)
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
				inj := runInjected(t, "470.lbm", tc.stealing, plan)
				if inj.Stats.ParRecoveries == 0 {
					t.Fatalf("injection %q never triggered a recovery (stats %+v)", spec, inj.Stats)
				}
				if inj.Stats.DemotedLoops == 0 {
					t.Errorf("recovery ran %d times but demoted no loop", inj.Stats.ParRecoveries)
				}
				if inj.Stats.DemotedLoops > inj.Stats.ParRecoveries {
					t.Errorf("more demotions (%d) than recoveries (%d)", inj.Stats.DemotedLoops, inj.Stats.ParRecoveries)
				}
				if !sameResult(rr, inj) {
					t.Errorf("recovered run diverges from round-robin:\n round-robin %+v\n   recovered %+v", rr.Result, inj.Result)
				}
				if sansRecoveryStats(rr.Stats) != sansRecoveryStats(inj.Stats) {
					t.Errorf("stats diverge after recovery:\n round-robin %+v\n   recovered %+v", rr.Stats, inj.Stats)
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

package dbm_test

// Determinism tests for the speculative region engine at one piece per
// guest thread (WorkStealing off — plain static chunking on host
// goroutines): simulated results, the full-image MemHash included, must
// be bit-identical to the single-goroutine round-robin engine, at any
// GOMAXPROCS. Run with -race these also double as race tests for the
// per-thread TLBs, code caches and block-link inline caches under real
// concurrency. steal_test.go pins the subdivided engine against this
// one.

import (
	"runtime"
	"slices"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// staticSchedule builds one workload's train binary and its
// statically-selected parallel schedule.
func staticSchedule(t testing.TB, name string) (*obj.Executable, []*obj.Library, *rules.Schedule) {
	t.Helper()
	exe, libs, err := workloads.Build(name, workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	prog.SelectLoops(analyzer.SelectOptions{})
	sched, err := prog.GenParallelSchedule()
	if err != nil {
		t.Fatal(err)
	}
	return exe, libs, sched
}

// runConfig executes one workload's statically-selected parallel
// schedule under the DBM with the given configuration.
func runConfig(t testing.TB, name string, cfg dbm.Config) *dbm.Result {
	t.Helper()
	exe, libs, sched := staticSchedule(t, name)
	ex, err := dbm.New(exe, sched, cfg, libs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runEngine selects the round-robin engine or the speculative engine
// at one piece per thread.
func runEngine(t *testing.T, name string, hostParallel bool) *dbm.Result {
	t.Helper()
	cfg := dbm.DefaultConfig(8)
	cfg.HostParallel = hostParallel
	cfg.WorkStealing = false
	return runConfig(t, name, cfg)
}

// sansEngineStats clears the only stats that legitimately differ
// between engine configurations: which engine ran the regions, and how
// many it subdivided.
func sansEngineStats(s dbm.Stats) dbm.Stats {
	s.HostParRegions = 0
	s.StealRegions = 0
	return s
}

// sameResult compares every simulated-outcome field (the Output slice
// keeps vm.Result from being comparable with ==).
func sameResult(a, b *dbm.Result) bool {
	return a.Exit == b.Exit && a.Cycles == b.Cycles && a.Insts == b.Insts &&
		a.MemHash == b.MemHash && a.DataHash == b.DataHash &&
		slices.Equal(a.Output, b.Output)
}

func TestHostParallelBitIdenticalToRoundRobin(t *testing.T) {
	for _, name := range []string{"470.lbm", "462.libquantum", "433.milc"} {
		t.Run(name, func(t *testing.T) {
			rr := runEngine(t, name, false)
			hp := runEngine(t, name, true)
			if rr.Stats.HostParRegions != 0 {
				t.Fatalf("round-robin run used host-parallel engine %d times", rr.Stats.HostParRegions)
			}
			if hp.Stats.HostParRegions == 0 {
				t.Fatalf("host-parallel engine never engaged (all %d regions fell back)", hp.Stats.ParRegions)
			}
			if !sameResult(rr, hp) {
				t.Errorf("results differ:\n round-robin %+v\nhost-parallel %+v", rr.Result, hp.Result)
			}
			if sansEngineStats(rr.Stats) != sansEngineStats(hp.Stats) {
				t.Errorf("stats differ:\n round-robin %+v\nhost-parallel %+v", rr.Stats, hp.Stats)
			}
		})
	}
}

func TestHostParallelDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := runEngine(t, "470.lbm", true)
	runtime.GOMAXPROCS(max(runtime.NumCPU(), 4))
	many := runEngine(t, "470.lbm", true)

	if !sameResult(one, many) {
		t.Errorf("results differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Result, many.Result)
	}
	if one.Stats != many.Stats {
		t.Errorf("stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Stats, many.Stats)
	}
}

// TestMoreThan64ThreadsMatchesRoundRobin runs past the 64 owners a
// block's chargeMask can stamp: owners 64 and up must still be charged
// for each block exactly once (through the locked charged sets), at
// either subdivision factor.
func TestMoreThan64ThreadsMatchesRoundRobin(t *testing.T) {
	const name, threads = "470.lbm", 65
	cfg := dbm.DefaultConfig(threads)
	cfg.HostParallel = false
	rr := runConfig(t, name, cfg)
	if rr.Stats.ParRegions == 0 {
		t.Fatalf("no region parallelised at %d threads", threads)
	}
	for _, stealing := range []bool{false, true} {
		cfg := dbm.DefaultConfig(threads)
		cfg.WorkStealing = stealing
		got := runConfig(t, name, cfg)
		if got.Stats.HostParRegions == 0 {
			t.Fatalf("stealing=%v: speculative engine never engaged", stealing)
		}
		if (got.Stats.StealRegions > 0) != stealing {
			t.Errorf("stealing=%v: %d subdivided regions", stealing, got.Stats.StealRegions)
		}
		// One piece per thread pins MemHash too; stealing pins all but it.
		same := sameResult
		if stealing {
			same = samePinnedResult
		}
		if !same(rr, got) {
			t.Errorf("stealing=%v: results differ:\n round-robin %+v\n speculative %+v", stealing, rr.Result, got.Result)
		}
		if sansEngineStats(rr.Stats) != sansEngineStats(got.Stats) {
			t.Errorf("stealing=%v: stats differ:\n round-robin %+v\n speculative %+v", stealing, rr.Stats, got.Stats)
		}
	}
}

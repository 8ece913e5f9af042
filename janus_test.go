package janus

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"janus/internal/dbm"
	"janus/internal/vm"
	"janus/internal/workloads"
)

func TestParalleliseAllNineBenchmarks(t *testing.T) {
	for _, name := range workloads.ParallelisableNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			exe, libs, err := workloads.Build(name, workloads.Train, workloads.O3)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Parallelise(exe, Config{
				Threads:    8,
				UseProfile: true,
				UseChecks:  true,
				Verify:     true,
			}, libs...)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Speedup() <= 0 {
				t.Fatal("no speedup computed")
			}
			t.Logf("%s: %.2fx, %d loops selected, %d regions, %d checks run",
				name, rep.Speedup(), rep.Selected, rep.Stats.ParRegions, rep.Stats.ChecksRun)
		})
	}
}

// TestVerifyAcrossOptLevelsThreadsEngines is the paper's promise over
// every binary flavour the harness measures: the full configuration of
// each parallelisable benchmark at O2, O3 and O3AVX, at 1 and 8
// threads, under the speculative and the round-robin engine, is
// indistinguishable from native execution. It is also the suite-wide
// engine-equivalence check at the DBM seam: the round-robin run
// (single=true, dbm.Config.HostParallel off) must reproduce the default
// engine's simulated result and every Stats counter except the two that
// attribute regions to an engine, which is what keeps every figure
// independent of the engine the DBM picks. The O3AVX builds hoist a
// vector broadcast out of their float-stream loops, so this is also the
// suite-level check that vector live-ins reach region threads. Not
// -short-skipped: the race job runs it on host goroutines.
func TestVerifyAcrossOptLevelsThreadsEngines(t *testing.T) {
	full := Config{UseProfile: true, UseChecks: true}.Selection()
	for _, name := range workloads.ParallelisableNames() {
		for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
			exe, libs, err := workloads.Build(name, workloads.Ref, opt)
			if err != nil {
				t.Fatal(err)
			}
			trainExe, _, err := workloads.Build(name, workloads.Train, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref := BinaryOf(exe, libs...)
			plan, err := PlanCached(nil, ref, BinaryOf(trainExe, libs...), full)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 8} {
				var def *dbm.Result // the default engine's run, for the round-robin one
				for _, single := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%dT/single=%t", name, opt, threads, single), func(t *testing.T) {
						dcfg := dbm.DefaultConfig(threads)
						dcfg.HostParallel = !single
						native, res, err := RunPlanBinary(nil, ref, plan, dcfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := Verify(native, res); err != nil {
							t.Fatal(err)
						}
						if !single {
							def = res
							return
						}
						if def == nil {
							t.Fatal("the default engine's run failed; nothing to compare with")
						}
						if res.Stats.HostParRegions != 0 || res.Stats.StealRegions != 0 {
							t.Errorf("round-robin run attributed %d regions to host goroutines, %d subdivided", res.Stats.HostParRegions, res.Stats.StealRegions)
						}
						if !reflect.DeepEqual(res.Result, def.Result) {
							t.Errorf("results differ:\n round-robin %+v\n     default %+v", res.Result, def.Result)
						}
						rr, hp := res.Stats, def.Stats
						rr.HostParRegions, rr.StealRegions = 0, 0
						hp.HostParRegions, hp.StealRegions = 0, 0
						if rr != hp {
							t.Errorf("stats differ beyond engine attribution:\n round-robin %+v\n     default %+v", res.Stats, def.Stats)
						}
					})
				}
			}
		}
	}
}

func TestConfigProgression(t *testing.T) {
	// The four figure-7 configurations must all verify, and adding
	// profile+checks must not lose performance on a check-needing
	// benchmark.
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Parallelise(exe, Config{Threads: 8, Verify: true}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Parallelise(exe, Config{Threads: 8, UseProfile: true, UseChecks: true, Verify: true}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if full.Speedup() < static.Speedup() {
		t.Fatalf("checks should help bwaves: static=%.2f full=%.2f", static.Speedup(), full.Speedup())
	}
	if full.Stats.ChecksRun == 0 {
		t.Fatal("bwaves full config must run bounds checks")
	}
	if full.Stats.TxStarted == 0 {
		t.Fatal("bwaves hot loop must speculate on the pow call")
	}
}

func TestBareDBMOverheadBounded(t *testing.T) {
	exe, libs, err := workloads.Build("433.milc", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	native, err := RunNativeBaseline(exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := RunBareDBMCached(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(bare.Cycles) / float64(native.Cycles)
	if ratio < 1.0 {
		t.Fatalf("bare DBM cannot be faster than native: %.3f", ratio)
	}
	if ratio > 2.0 {
		t.Fatalf("bare DBM overhead out of range: %.3f", ratio)
	}
}

// TestRunAllocationBudget is the tier-1 guard on the zero-copy loader:
// one suite binary with a 10 MB data section, run natively and under
// the 8-thread DBM — two machines. Both map the executable's section
// bytes, so the two runs allocate the pages they write, their decode
// tables and the DBM's bookkeeping: ≈ 7.7 MB where this was written.
// A loader that copied the section again would add 10 MB per machine
// (27.8 MB before machines mapped their images), so the 12 MB budget
// fails on the first re-introduced copy without the benchmark being
// run.
func TestRunAllocationBudget(t *testing.T) {
	const budget = 12 << 20
	exe, libs, err := workloads.Build("470.lbm", workloads.Ref, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	// The plan, and the executable's page image, are built outside the
	// measured window.
	rep, err := Parallelise(exe, Config{Threads: 8, Verify: true}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := vm.RunNative(exe, libs...); err != nil {
		t.Fatal(err)
	}
	ex, err := dbm.New(exe, rep.Schedule, dbm.DefaultConfig(8), libs...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("470.lbm ref O3: %d KiB of data, native + 8-thread DBM run allocated %d KiB", len(exe.Data)>>10, got>>10)
	if got > budget {
		t.Fatalf("native + 8-thread DBM run of 470.lbm allocated %d bytes, budget %d: has a copy of the %d-byte data section come back?", got, budget, len(exe.Data))
	}
}

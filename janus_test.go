package janus

import (
	"fmt"
	"testing"

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
// indistinguishable from native execution. The O3AVX builds hoist a
// vector broadcast out of their float-stream loops, so this is also the
// suite-level check that vector live-ins reach region threads. Not
// -short-skipped: the race job runs it on host goroutines.
func TestVerifyAcrossOptLevelsThreadsEngines(t *testing.T) {
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
			for _, threads := range []int{1, 8} {
				for _, single := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/%dT/single=%t", name, opt, threads, single), func(t *testing.T) {
						_, err := Parallelise(exe, Config{
							Threads:         threads,
							UseProfile:      true,
							UseChecks:       true,
							Verify:          true,
							TrainExe:        trainExe,
							SingleGoroutine: single,
						}, libs...)
						if err != nil {
							t.Fatal(err)
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
	bare, err := RunBareDBM(exe, libs...)
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

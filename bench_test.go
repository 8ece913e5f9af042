// Ablation benchmarks for the design decisions ARCHITECTURE.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Each reports its headline metric as custom units (speedups). Plans
// and results are memoised per janus.Session, so every iteration starts
// in a fresh one: the time is a run's, not a lookup's. The figures and
// tables themselves are timed by bench/ (harness.figN_s, suite_off).
package janus_test

import (
	"testing"

	"janus"

	"janus/internal/dbm"
	"janus/internal/workloads"
)

// BenchmarkAblation_NoProfile measures the cost of skipping the
// training stage (static selection only) on a small-loop benchmark.
func BenchmarkAblation_NoProfile(b *testing.B) {
	exe, libs, err := workloads.Build("437.leslie3d", workloads.Ref, workloads.O3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := janus.NewSession(nil)
		static, err := janus.Parallelise(exe, janus.Config{Threads: 8, Session: s}, libs...)
		if err != nil {
			b.Fatal(err)
		}
		prof, err := janus.Parallelise(exe, janus.Config{Threads: 8, UseProfile: true, Session: s}, libs...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(static.Speedup(), "static-only")
		b.ReportMetric(prof.Speedup(), "with-profile")
	}
}

// BenchmarkAblation_NoChecks measures what runtime checks buy on a
// pointer-heavy benchmark (bwaves needs them for its hot loops).
func BenchmarkAblation_NoChecks(b *testing.B) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Ref, workloads.O3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s := janus.NewSession(nil)
		off, err := janus.Parallelise(exe, janus.Config{Threads: 8, UseProfile: true, Session: s}, libs...)
		if err != nil {
			b.Fatal(err)
		}
		on, err := janus.Parallelise(exe, janus.Config{Threads: 8, UseProfile: true, UseChecks: true, Session: s}, libs...)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(off.Speedup(), "no-checks")
		b.ReportMetric(on.Speedup(), "with-checks")
	}
}

// BenchmarkAblation_TranslationCost sweeps the DBM translation cost to
// show the sensitivity of the bare-overhead result (paper: DynamoRIO's
// efficiency is a prerequisite).
func BenchmarkAblation_TranslationCost(b *testing.B) {
	exe, libs, err := workloads.Build("464.h264ref", workloads.Ref, workloads.O3)
	if err != nil {
		b.Fatal(err)
	}
	native, err := janus.RunNativeBaseline(exe, libs...)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, cost := range []int64{0, 60, 240} {
			cm := dbm.DefaultCost()
			cm.TransPerInst = cost
			ex, err := dbm.New(exe, nil, dbm.Config{Threads: 1, Cost: cm}, libs...)
			if err != nil {
				b.Fatal(err)
			}
			res, err := ex.Run()
			ex.Close()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(native.Cycles)/float64(res.Cycles),
				map[int64]string{0: "free-translation", 60: "default", 240: "4x-translation"}[cost])
		}
	}
}

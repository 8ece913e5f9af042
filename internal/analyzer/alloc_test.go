package analyzer_test

import (
	"runtime"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/genkern"
	"janus/internal/obj"
	"janus/internal/workloads"
)

// analyzeCost returns the mean bytes and allocations of one Analyze of
// exe, measured like testing.AllocsPerRun: one warm-up run (which also
// decodes the code section once), then the mean of runs at GOMAXPROCS 1.
func analyzeCost(t *testing.T, exe *obj.Executable) (bytes, allocs uint64) {
	t.Helper()
	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	analyze := func() {
		if _, err := analyzer.Analyze(exe); err != nil {
			t.Fatal(err)
		}
	}
	analyze()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		analyze()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

// TestAnalyzeAllocationBound: static analysis keeps its dense shape. The
// bounds are 1.25 × what one Analyze measured when the CFG, SSA and
// liveness moved from maps to index-addressed slices and register
// bitsets; a map keyed by instruction, block or register coming back
// costs several times that.
func TestAnalyzeAllocationBound(t *testing.T) {
	k, err := genkern.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	lbm, _, err := workloads.Build("470.lbm", workloads.Ref, workloads.O2)
	if err != nil {
		t.Fatal(err)
	}
	// The map-based analyser measured 88 712 B in 1 280 allocations and
	// 95 501 B in 1 422.
	for _, c := range []struct {
		name           string
		exe            *obj.Executable
		measuredBytes  uint64
		measuredAllocs uint64
	}{
		{"genkern seed 1 ref", k.Ref, 29888, 236},
		{"470.lbm ref O2", lbm, 26728, 177},
	} {
		bytes, allocs := analyzeCost(t, c.exe)
		t.Logf("%s: %d B, %d allocs per Analyze", c.name, bytes, allocs)
		if bytes > c.measuredBytes*5/4 || allocs > c.measuredAllocs*5/4 {
			t.Errorf("%s: Analyze allocates %d B in %d allocations; bound %d B, %d allocations (1.25 × measured)",
				c.name, bytes, allocs, c.measuredBytes*5/4, c.measuredAllocs*5/4)
		}
	}
}

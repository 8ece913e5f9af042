package dbm_test

// Determinism tests for the speculative engine's subdivision factor:
// with each chunk cut into jrt.StealFactor stealable pieces, simulated
// results must be bit-identical to the same engine at one piece per
// thread (static chunks, hostpar_test.go) at any GOMAXPROCS, whichever
// worker steals which piece. The one exception is the full-image
// MemHash — worker stacks and TLS scratch
// above vm.DataHashLimit depend on which worker ran which subchunk —
// so these tests compare everything the determinism contract covers:
// outputs, virtual cycles, instruction counts, DataHash and stats.

import (
	"runtime"
	"slices"
	"testing"

	"janus/internal/dbm"
)

// runStealEngine runs the speculative engine subdivided for work
// stealing, or at one piece per thread.
func runStealEngine(t *testing.T, name string, stealing bool) *dbm.Result {
	t.Helper()
	cfg := dbm.DefaultConfig(8)
	cfg.WorkStealing = stealing
	return runConfig(t, name, cfg)
}

// samePinnedResult compares every simulated field the determinism
// contract pins under work stealing (all of vm.Result except the
// full-image MemHash).
func samePinnedResult(a, b *dbm.Result) bool {
	return a.Exit == b.Exit && a.Cycles == b.Cycles && a.Insts == b.Insts &&
		a.DataHash == b.DataHash && slices.Equal(a.Output, b.Output)
}

func TestStealingBitIdenticalToStaticChunks(t *testing.T) {
	for _, name := range []string{"470.lbm", "462.libquantum", "433.milc", "459.GemsFDTD"} {
		t.Run(name, func(t *testing.T) {
			static := runStealEngine(t, name, false)
			steal := runStealEngine(t, name, true)
			if static.Stats.StealRegions != 0 {
				t.Fatalf("one-piece run subdivided %d regions", static.Stats.StealRegions)
			}
			if steal.Stats.StealRegions == 0 {
				t.Fatalf("no region was subdivided (%d host-parallel regions)", steal.Stats.HostParRegions)
			}
			if !samePinnedResult(static, steal) {
				t.Errorf("results differ:\n  static %+v\nstealing %+v", static.Result, steal.Result)
			}
			if sansEngineStats(static.Stats) != sansEngineStats(steal.Stats) {
				t.Errorf("stats differ:\n  static %+v\nstealing %+v", static.Stats, steal.Stats)
			}
		})
	}
}

func TestStealingDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	one := runStealEngine(t, "470.lbm", true)
	runtime.GOMAXPROCS(max(runtime.NumCPU(), 4))
	many := runStealEngine(t, "470.lbm", true)

	if !samePinnedResult(one, many) {
		t.Errorf("results differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Result, many.Result)
	}
	if one.Stats != many.Stats {
		t.Errorf("stats differ across GOMAXPROCS:\n 1: %+v\n n: %+v", one.Stats, many.Stats)
	}
}

// TestStealingRepeatedRunsIdentical replays the stealing configuration
// several times: whichever worker wins each steal race, the folded
// outcome must not change between runs.
func TestStealingRepeatedRunsIdentical(t *testing.T) {
	first := runStealEngine(t, "433.milc", true)
	for i := 0; i < 3; i++ {
		again := runStealEngine(t, "433.milc", true)
		if !samePinnedResult(first, again) {
			t.Fatalf("run %d differs:\nfirst %+v\nagain %+v", i+1, first.Result, again.Result)
		}
		if first.Stats != again.Stats {
			t.Fatalf("run %d stats differ:\nfirst %+v\nagain %+v", i+1, first.Stats, again.Stats)
		}
	}
}

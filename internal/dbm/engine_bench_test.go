package dbm_test

import (
	"testing"

	"janus/internal/dbm"
)

// The Region* rows measure a full statically-parallelised DBM run of
// the lbm train workload (dominated by DOALL parallel regions) under
// each region-engine configuration: round-robin, the speculative engine
// at one piece per thread, and with work stealing. Simulated results
// are bit-identical between all three; only host time differs.
func BenchmarkRegionRoundRobin(b *testing.B)   { benchRegion(b, false, false) }
func BenchmarkRegionHostParallel(b *testing.B) { benchRegion(b, true, false) }
func BenchmarkRegionStealing(b *testing.B)     { benchRegion(b, true, true) }

func benchRegion(b *testing.B, hostParallel, stealing bool) {
	exe, libs, sched := staticSchedule(b, "470.lbm")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := dbm.DefaultConfig(8)
		cfg.HostParallel = hostParallel
		cfg.WorkStealing = stealing
		ex, err := dbm.New(exe, sched, cfg, libs...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

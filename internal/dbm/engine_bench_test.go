package dbm_test

// Thin wrappers over the shared region-engine micro-benchmark bodies in
// internal/enginebench, so every package's `go test -bench` rows
// measure one set of workloads.

import (
	"testing"

	"janus/internal/enginebench"
)

func BenchmarkRegionRoundRobin(b *testing.B)   { enginebench.ByName("RegionRoundRobin").Fn(b) }
func BenchmarkRegionHostParallel(b *testing.B) { enginebench.ByName("RegionHostParallel").Fn(b) }

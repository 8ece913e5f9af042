package vm_test

// Thin wrappers over the shared engine micro-benchmark bodies in
// internal/enginebench, so every package's `go test -bench` rows
// measure one set of workloads.

import (
	"testing"

	"janus/internal/enginebench"
	"janus/internal/vm"
)

func BenchmarkMemoryRead64(b *testing.B)          { enginebench.ByName("MemoryRead64").Fn(b) }
func BenchmarkMemoryWrite64(b *testing.B)         { enginebench.ByName("MemoryWrite64").Fn(b) }
func BenchmarkMemoryHashIncremental(b *testing.B) { enginebench.ByName("MemoryHashIncremental").Fn(b) }
func BenchmarkExecInst(b *testing.B)              { enginebench.ByName("ExecInst").Fn(b) }
func BenchmarkRunNative(b *testing.B)             { enginebench.ByName("RunNative").Fn(b) }

// TestExecInstZeroAlloc asserts the dispatch loop allocates nothing in
// steady state: the shared arithmetic/memory/branch mix re-executed
// over a warm machine must report zero allocations per run.
func TestExecInstZeroAlloc(t *testing.T) {
	exe, err := enginebench.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	c := m.NewContext(0, 0x7fff_0000)
	// Warm the decode cache and memory pages.
	if err := vm.RunContext(m, c, vm.DefaultMaxSteps); err != nil {
		t.Fatal(err)
	}
	insts := enginebench.InstMix()
	allocs := testing.AllocsPerRun(100, func() {
		for i := range insts {
			if _, err := vm.ExecInst(m, c, &insts[i], 0x400000); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecInst steady state allocates %.1f objects per run, want 0", allocs)
	}
}

package enginebench

import (
	"testing"

	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/stm"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// Spec is one shared micro-benchmark body; the go-test benchmarks are
// thin Benchmark* wrappers that look it up by name.
type Spec struct {
	Name string
	Fn   func(b *testing.B)
}

// Specs returns the engine micro-benchmark suite. Each call builds
// fresh fixtures, so specs are independent.
func Specs() []Spec {
	return []Spec{
		{"MemoryRead64", benchMemoryRead64},
		{"MemoryWrite64", benchMemoryWrite64},
		{"MemoryHashIncremental", benchMemoryHashIncremental},
		{"ExecInst", benchExecInst},
		{"RunNative", benchRunNative},
		{"STM", benchSTM},
		{"RegionRoundRobin", benchRegion(false, false)},
		{"RegionHostParallel", benchRegion(true, false)},
		{"RegionStealing", benchRegion(true, true)},
	}
}

// Spec returns the named spec (nil Fn if unknown).
func ByName(name string) Spec {
	for _, sp := range Specs() {
		if sp.Name == name {
			return sp
		}
	}
	return Spec{}
}

// benchMemoryRead64 measures the TLB-hit load path.
func benchMemoryRead64(b *testing.B) {
	m := vm.NewMemory()
	m.Write64(0x1000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Read64(0x1000 + uint64(i%512)*8)
	}
	_ = sink
}

// benchMemoryWrite64 measures the TLB-hit store path (including dirty
// marking).
func benchMemoryWrite64(b *testing.B) {
	m := vm.NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write64(0x1000+uint64(i%512)*8, uint64(i))
	}
}

// benchMemoryHashIncremental measures a re-hash after touching one page
// out of 256: the dirty-page cache should make it near-constant in the
// resident set size.
func benchMemoryHashIncremental(b *testing.B) {
	m := vm.NewMemory()
	for p := uint64(0); p < 256; p++ {
		m.Write64(0x600000+p*4096, p+1)
	}
	m.Hash() // populate digests
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		m.Write64(0x600000, uint64(i)+1) // dirty one page
		sink += m.Hash()
	}
	_ = sink
}

// benchExecInst measures the zero-allocation dispatch loop over the
// shared arithmetic/memory/branch mix. Must report 0 B/op.
func benchExecInst(b *testing.B) {
	exe, err := BuildProgram()
	if err != nil {
		b.Fatal(err)
	}
	m, err := vm.NewMachine(exe)
	if err != nil {
		b.Fatal(err)
	}
	c := m.NewContext(0, 0x7fff_0000)
	insts := InstMix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &insts[i%len(insts)]
		if _, err := vm.ExecInst(m, c, in, 0x400000); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRunNative measures whole-program interpretation throughput
// (fetch + dispatch + memory) on the shared reduction loop.
func benchRunNative(b *testing.B) {
	exe, err := BuildProgram()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.RunNative(exe); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRegion measures a full statically-parallelised DBM run of the
// lbm train workload (dominated by DOALL parallel regions) under the
// selected region-engine configuration, so the snapshot tracks the
// round-robin engine and the speculative engine at one piece per
// thread (RegionHostParallel) and with work stealing. Simulated
// results are bit-identical between all three; only host time differs.
func benchRegion(hostParallel, stealing bool) func(b *testing.B) {
	return func(b *testing.B) {
		exe, libs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := analyzer.Analyze(exe)
		if err != nil {
			b.Fatal(err)
		}
		prog.SelectLoops(analyzer.SelectOptions{})
		sched, err := prog.GenParallelSchedule()
		if err != nil {
			b.Fatal(err)
		}
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
}

// benchSTM measures a full transaction lifecycle at a typical Janus
// write-set size: begin (reused buffers), a read/write mix, validate
// and commit.
func benchSTM(b *testing.B) {
	mem := vm.NewMemory()
	for i := uint64(0); i < 64; i++ {
		mem.Write64(0x1000+i*8, i)
	}
	tx := stm.Begin(mem, stm.Checkpoint{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Reset(mem, stm.Checkpoint{})
		for j := uint64(0); j < 32; j++ {
			a := 0x1000 + j*8
			tx.Write64(a, tx.Read64(a)+1)
		}
		if !tx.Validate() {
			b.Fatal("validate failed")
		}
		tx.Commit()
	}
}

package stm_test

import (
	"testing"

	"janus/internal/enginebench"
	"janus/internal/stm"
	"janus/internal/vm"
)

// BenchmarkSTM delegates to the shared engine spec in
// internal/enginebench.
func BenchmarkSTM(b *testing.B) { enginebench.ByName("STM").Fn(b) }

// BenchmarkSTMReadHeavy measures the buffered-read fast path (hits the
// write buffer, then the read set).
func BenchmarkSTMReadHeavy(b *testing.B) {
	mem := vm.NewMemory()
	tx := stm.Begin(mem, stm.Checkpoint{})
	for j := uint64(0); j < 16; j++ {
		tx.Write64(0x2000+j*8, j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += tx.Read64(0x2000 + uint64(i%16)*8)
	}
	_ = sink
}

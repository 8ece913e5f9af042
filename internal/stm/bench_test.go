package stm_test

import (
	"testing"

	"janus/internal/stm"
	"janus/internal/vm"
)

// BenchmarkSTM measures a full transaction lifecycle at a typical Janus
// write-set size: begin (reused buffers), a read/write mix, validate
// and commit.
func BenchmarkSTM(b *testing.B) {
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

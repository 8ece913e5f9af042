package vm

import (
	"testing"
)

func BenchmarkMemoryReadWriteStride(b *testing.B) {
	m := NewMemory()
	for p := uint64(0); p < 64; p++ {
		m.Write64(0x10_0000+p*pageSize, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		a := 0x10_0000 + uint64(i%64)*pageSize
		m.Write64(a, uint64(i))
		sink += m.Read64(a + 8)
	}
	_ = sink
}

// BenchmarkMemoryWriteBytes measures the bulk page-span store path
// (privatised-cell re-homing; machines map their image and no longer
// load it through here).
func BenchmarkMemoryWriteBytes(b *testing.B) {
	m := NewMemory()
	buf := make([]byte, 64*pageSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteBytes(0x600000, buf)
	}
}

func BenchmarkMemoryHashFull(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewMemory()
		for p := uint64(0); p < 256; p++ {
			m.Write64(0x600000+p*pageSize, p+1)
		}
		b.StartTimer()
		_ = m.Hash()
	}
}

package vm

import (
	"bytes"
	"testing"
)

// TestCrossPageWord exercises Read64/Write64 straddling a page
// boundary: every split position must round-trip and agree with
// byte-at-a-time assembly.
func TestCrossPageWord(t *testing.T) {
	for off := uint64(0); off < 8; off++ {
		m := NewMemory()
		addr := uint64(2*pageSize) - 8 + off
		v := uint64(0x1122334455667788) + off
		m.Write64(addr, v)
		if got := m.Read64(addr); got != v {
			t.Fatalf("offset %d: Read64 = %#x, want %#x", off, got, v)
		}
		var byteWise uint64
		for i := uint64(0); i < 8; i++ {
			byteWise |= uint64(m.Load8(addr+i)) << (8 * i)
		}
		if byteWise != v {
			t.Fatalf("offset %d: byte assembly = %#x, want %#x", off, byteWise, v)
		}
	}
}

// TestReadWriteBytesCrossPage round-trips a buffer spanning several
// pages through the bulk-copy paths, with a hole over an unallocated
// page reading back as zeroes.
func TestReadWriteBytesCrossPage(t *testing.T) {
	m := NewMemory()
	src := make([]byte, 3*pageSize+123)
	for i := range src {
		src[i] = byte(i * 7)
	}
	base := uint64(0x10_0000 - 99) // unaligned start
	m.WriteBytes(base, src)
	if got := m.ReadBytes(base, len(src)); !bytes.Equal(got, src) {
		t.Fatal("ReadBytes != WriteBytes input")
	}
	// A never-touched span reads back zero-filled.
	if got := m.ReadBytes(0x9000_0000, 2*pageSize); !bytes.Equal(got, make([]byte, 2*pageSize)) {
		t.Fatal("unallocated span not zero")
	}
}

// TestMemoryCopy checks the page-span Copy used by the privatised-slot
// writeback, including copies from unallocated source pages.
func TestMemoryCopy(t *testing.T) {
	m := NewMemory()
	src := make([]byte, pageSize+500)
	for i := range src {
		src[i] = byte(i)
	}
	m.WriteBytes(0x4000-250, src)
	m.Copy(0x8_0000-13, 0x4000-250, len(src))
	if got := m.ReadBytes(0x8_0000-13, len(src)); !bytes.Equal(got, src) {
		t.Fatal("Copy mismatch")
	}
	// Copying from a hole zeroes the destination.
	m.WriteBytes(0x2_0000, []byte{1, 2, 3, 4})
	m.Copy(0x2_0000, 0x7777_0000, 4)
	if got := m.ReadBytes(0x2_0000, 4); !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("Copy from hole = %v, want zeroes", got)
	}
}

// TestIncrementalHashEquivalence verifies that the dirty-page digest
// cache is equivalent to a full rehash: after any sequence of writes,
// Hash() of the mutated memory equals Hash() of a fresh memory holding
// the same contents.
func TestIncrementalHashEquivalence(t *testing.T) {
	m := NewMemory()
	addrs := []uint64{0x1000, 0x5008, 0x7ff8, 0x10_0000, 0x7ffc_0000_0120}
	for i, a := range addrs {
		m.Write64(a, uint64(i+1)*0x0101)
	}
	h1 := m.Hash()

	// Mutate one page after hashing: the cached digests for the other
	// pages must combine with the recomputed one correctly.
	m.Write64(0x5008, 0xdead)
	m.Write64(0x5010, 0xbeef)
	h2 := m.Hash()
	if h1 == h2 {
		t.Fatal("hash unchanged after write")
	}

	// Rebuild the same contents from scratch and compare.
	fresh := NewMemory()
	for i, a := range addrs {
		fresh.Write64(a, uint64(i+1)*0x0101)
	}
	fresh.Write64(0x5008, 0xdead)
	fresh.Write64(0x5010, 0xbeef)
	if fresh.Hash() != h2 {
		t.Fatal("incremental hash diverges from full rehash")
	}
	if fresh.HashBelow(0x6000) != m.HashBelow(0x6000) {
		t.Fatal("HashBelow diverges after incremental update")
	}

	// Writing a page back to all-zero must hash as if the page were
	// never resident.
	m2 := NewMemory()
	m2.Write64(0x1000, 5)
	empty := NewMemory().Hash()
	m2.Write64(0x1000, 0)
	if m2.Hash() != empty {
		t.Fatal("zeroed page still contributes to hash")
	}
}

// TestHashBelowConsistentWithHash checks both entry points share one
// construction: when every resident page is below the limit they agree.
func TestHashBelowConsistentWithHash(t *testing.T) {
	m := NewMemory()
	m.Write64(0x2000, 42)
	m.Write64(0x3000, 43)
	if m.Hash() != m.HashBelow(^uint64(0)) {
		t.Fatal("Hash != unbounded HashBelow")
	}
	if m.Hash() != m.HashBelow(0x4000) {
		t.Fatal("limit above all pages changed the digest")
	}
	if m.Hash() == m.HashBelow(0x3000) {
		t.Fatal("limit excluding a page did not change the digest")
	}
}

// TestTLBSharedAcrossContexts interleaves two contexts through one
// memory: a write by either context must be immediately visible to the
// other even though the translation cache retains recently used pages,
// and pages evicted from the TLB must remain reachable.
func TestTLBSharedAcrossContexts(t *testing.T) {
	m := NewMemory()
	c1 := &Context{ID: 0, Bus: m}
	c2 := &Context{ID: 1, Bus: m}

	// Three pages that fold onto one slot of the direct-mapped TLB,
	// touched alternately, so every access after the first evicts its
	// predecessor: fill, hit and eviction all happen.
	pages := []uint64{1 << pageShift, 64 << pageShift, 4097 << pageShift}
	for _, base := range pages[1:] {
		if tlbSlot(base>>pageShift) != tlbSlot(pages[0]>>pageShift) {
			t.Fatalf("page %#x does not share a TLB slot with %#x", base, pages[0])
		}
	}
	for round := uint64(0); round < 8; round++ {
		for i, base := range pages {
			a := base + 8*round
			c1.Bus.Write64(a, round*100+uint64(i))
			if got := c2.Bus.Read64(a); got != round*100+uint64(i) {
				t.Fatalf("round %d page %d: c2 read %d", round, i, got)
			}
			c2.Bus.Write64(a, round*200+uint64(i))
			if got := c1.Bus.Read64(a); got != round*200+uint64(i) {
				t.Fatalf("round %d page %d: c1 read %d", round, i, got)
			}
		}
	}
	// Evicted pages are still intact via the slow path.
	for i, base := range pages {
		if got := m.Read64(base + 8*7); got != 7*200+uint64(i) {
			t.Fatalf("page %d lost value after eviction: %d", i, got)
		}
	}
}

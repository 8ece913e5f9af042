package vm

import "testing"

// span is a 4 MiB-aligned address no other mapping shares a leaf with.
const span = 0x7000_0000

// TestRecycleLeafComesBackEmpty: a closed Memory's page-table leaves go
// to the next Memory that adds one, emptied — no slot still names a page
// of the run that closed it, not even while the leaf waits on the list,
// where a page would keep the data section it maps reachable — so an
// address that run wrote reads zero.
func TestRecycleLeafComesBackEmpty(t *testing.T) {
	key := uint64(span) >> pageShift >> leafBits
	old := NewMemory()
	for p := uint64(0); p < 4; p++ {
		old.Write64(span+p*pageSize, 0xdead)
	}
	lf := old.leafFor(key, false)
	_, reused := LeafStats()
	old.Close()
	for i := range lf.pages {
		if lf.pages[i].Load() != nil {
			t.Fatalf("closed Memory's leaf slot %d still names a page on the free list", i)
		}
	}

	m := NewMemory()
	if got := m.leafFor(key, true); got != lf {
		t.Fatal("the next Memory to add a leaf did not take the closed one's")
	}
	if _, r := LeafStats(); r != reused+1 {
		t.Fatalf("reused leaves went %d → %d, want one more", reused, r)
	}
	for p := uint64(0); p < 4; p++ {
		if got := m.Read64(span + p*pageSize); got != 0 {
			t.Fatalf("page %d of the recycled leaf reads %#x, want 0", p, got)
		}
	}
	if m.Pages() != 0 {
		t.Fatalf("%d pages resident after reads alone", m.Pages())
	}
	m.Close()
}

// TestRecycleStaleViewFaults: a view that outlived its Memory faults on
// its next TLB miss even when its last-leaf cache names a leaf a new
// Memory now owns, instead of reading that Memory's page through it or
// adding a page to it.
func TestRecycleStaleViewFaults(t *testing.T) {
	key := uint64(span) >> pageShift >> leafBits
	old := NewMemory()
	v := old.NewView()
	v.Write64(span, 1) // v's last-leaf cache now holds the span's leaf
	lf := old.leafFor(key, false)
	old.Close()

	m := NewMemory()
	m.Write64(span+pageSize, 42)
	if m.leafFor(key, false) != lf {
		t.Fatal("set-up: the new Memory did not take the closed one's leaf")
	}
	mustPanic(t, "a load through a stale view's last leaf", func() { v.Read64(span + pageSize) })
	mustPanic(t, "a store through a stale view's last leaf", func() { v.Write64(span+2*pageSize, 7) })
	if got := m.Read64(span + pageSize); got != 42 || m.Pages() != 1 {
		t.Fatalf("the new Memory reads %#x with %d pages after the stale view's accesses", got, m.Pages())
	}
	m.Close()
}

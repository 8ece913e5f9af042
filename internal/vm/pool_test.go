package vm

import (
	"sync"
	"testing"
)

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestCloseFaultsLaterUse: Close hands the machine's blocks to other
// machines, so nothing may read or write through it afterwards — not
// the Memory, not a view whose TLB still holds the page. Every such
// access panics instead of touching another run's bytes, and a second
// Close finds nothing left to hand over.
func TestCloseFaultsLaterUse(t *testing.T) {
	exe := dataProgram(t, 2*pageSize/8, func(i int) uint64 { return uint64(i) + 1 })
	m, err := NewMachine(exe)
	if err != nil {
		t.Fatal(err)
	}
	base, fresh := exe.Section.Base, exe.Section.Base+64*pageSize
	v := m.Mem.NewView()
	v.Write64(base, 7)  // privatised image page
	v.Write64(fresh, 9) // allocated page
	c := m.Mem.Snapshot()
	v.Write64(base+8, 8) // a pre-image block held by a live checkpoint
	if c.Pages() != 1 || m.Mem.Pages() != 3 {
		t.Fatalf("set-up: %d pages saved, %d resident", c.Pages(), m.Mem.Pages())
	}

	m.Close()
	if m.Mem.Pages() != 0 || m.Mem.spare != nil || m.Mem.ckpt != nil {
		t.Fatal("Close left pages, spares or a checkpoint behind")
	}
	mustPanic(t, "a load through a stale TLB entry", func() { v.Read64(base) })
	mustPanic(t, "a store through a stale TLB entry", func() { v.Write64(fresh, 1) })
	mustPanic(t, "a load through the closed Memory", func() { m.Mem.Read64(base + pageSize) })
	mustPanic(t, "a store to a new page of the closed Memory", func() { m.Mem.Write64(fresh+pageSize, 1) })

	// Three blocks went to the pool: two pages and the pre-image. A
	// second Close must not put any of them there again, or two later
	// machines would share one.
	m.Close()
	seen := map[*pageData]bool{}
	for i := 0; i < 16; i++ {
		d := takeBlock()
		if seen[d] {
			t.Fatal("the pool handed out one block twice: Close recycled it twice")
		}
		seen[d] = true
	}
}

// TestPoolMachinesShareNoBlock: machines that close and allocate
// concurrently pass blocks to each other through the pool. Each writes
// its own pattern over fresh and privatised pages and must read back
// exactly that — zeroes around it on a fresh page, the image around it
// on a privatised one. Under the race detector a block owned by two
// live machines at once is a reported race.
func TestPoolMachinesShareNoBlock(t *testing.T) {
	const pages = 8
	exe := dataProgram(t, pages*pageSize/8, func(i int) uint64 { return uint64(i) | 1<<40 })
	if _, err := NewMachine(exe); err != nil { // build the image once, outside the race
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				m, err := NewMachine(exe)
				if err != nil {
					t.Error(err)
					return
				}
				mark := uint64(g+1)<<56 | uint64(round)
				heap := exe.Section.Base + 1024*pageSize
				for p := uint64(0); p < pages; p++ {
					m.Mem.Write64(exe.Section.Base+p*pageSize+8*p, mark)
					m.Mem.Write64(heap+p*pageSize+8*p, mark)
				}
				for p := uint64(0); p < pages; p++ {
					for w := uint64(0); w < pageSize/8; w++ {
						img, zero := (p*pageSize/8+w)|1<<40, uint64(0)
						if w == p {
							img, zero = mark, mark
						}
						if got := m.Mem.Read64(exe.Section.Base + p*pageSize + 8*w); got != img {
							t.Errorf("goroutine %d round %d: image page %d word %d reads %#x, want %#x", g, round, p, w, got, img)
							return
						}
						if got := m.Mem.Read64(heap + p*pageSize + 8*w); got != zero {
							t.Errorf("goroutine %d round %d: fresh page %d word %d reads %#x, want %#x", g, round, p, w, got, zero)
							return
						}
					}
				}
				m.Close()
			}
		}()
	}
	wg.Wait()
}

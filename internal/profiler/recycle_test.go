package profiler

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// profileRun is one synthetic profiling run: loops loops, each entered
// once, running iters iterations that write words distinct words, then
// closed.
func profileRun(loops, iters, words int) {
	d := NewDependence()
	for id := 0; id < loops; id++ {
		d.EnterIter(id, true)
		for it := 0; it < iters; it++ {
			if it > 0 {
				d.EnterIter(id, false)
			}
			for w := 0; w < words/iters; w++ {
				d.Record(id, uint64(0x10000+(it*words/iters+w)*8), 8, true)
			}
		}
	}
	d.Close()
}

// TestRecycledTableReadsEmpty: a table taken from the free list holds
// nothing of its previous run. The first run writes every word in a late
// iteration; the second reads them in iteration 0 without entering the
// loop first (Record alone takes the table), so a stale record would
// show as a cross-iteration conflict. As many loops as the list holds
// tables, so the second run draws only tables the first one returned.
func TestRecycledTableReadsEmpty(t *testing.T) {
	const loops, words = 16, 512
	d := NewDependence()
	for id := 0; id < loops; id++ {
		d.EnterIter(id, true)
		for it := 0; it < 5; it++ {
			d.EnterIter(id, false)
		}
		for w := 0; w < words; w++ {
			d.Record(id, uint64(0x10000+w*8), 8, true)
		}
	}
	d.Close()
	d = NewDependence()
	for id := 0; id < loops; id++ {
		for w := 0; w < words; w++ {
			d.Record(id, uint64(0x10000+w*8), 8, false)
		}
		if n := d.Conflicts(id); n != 0 {
			t.Fatalf("loop %d: %d conflicts against a previous run's records", id, n)
		}
	}
	d.Close()
}

// TestSecondRunAllocatesNoTableStorage: once a run of a given shape has
// closed, the next run of that shape grows its tables through the
// backing arrays it draws from the free list. Every loop touches the
// same number of words, so whichever table a loop draws is big enough.
// The GC is off, so the measured window holds the run's own
// allocations alone.
func TestSecondRunAllocatesNoTableStorage(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const loops, iters, words = 8, 16, 1 << 14
	profileRun(loops, iters, words) // fills the free list
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	profileRun(loops, iters, words)
	runtime.ReadMemStats(&after)
	// The tables hold loops × ≥ 2·words slots of 8-byte keys, 16-byte
	// values and 1-byte marks: several MB. What a run may allocate is
	// its per-loop bookkeeping.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<10 {
		t.Fatalf("second run allocated %d bytes, want < 4 KiB (no table storage)", got)
	}
}

// TestDependenceUseAfterClosePanics: Close hands the tables on, so every
// later use panics instead of reading another run's records; a second
// Close is a no-op.
func TestDependenceUseAfterClosePanics(t *testing.T) {
	d := NewDependence()
	d.EnterIter(0, true)
	d.Record(0, 0x1000, 8, true)
	d.Close()
	d.Close()
	for name, use := range map[string]func(){
		"EnterIter": func() { d.EnterIter(0, false) },
		"Record":    func() { d.Record(0, 0x1000, 8, false) },
		"Observed":  func() { d.Observed() },
		"Conflicts": func() { d.Conflicts(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestOversizedTableNotRecycled: Close leaves a table grown past
// maxRecycledSlots to the garbage collector, so the next profile draws
// a table within the bound.
func TestOversizedTableNotRecycled(t *testing.T) {
	d := NewDependence()
	d.EnterIter(0, true)
	for w := 0; w <= maxRecycledSlots/2; w++ {
		d.Record(0, uint64(0x10000+w*8), 8, true)
	}
	if got := d.loops[0].last.Slots(); got <= maxRecycledSlots {
		t.Fatalf("table grew to %d slots, want > %d", got, maxRecycledSlots)
	}
	d.Close()
	d = NewDependence()
	d.EnterIter(0, true)
	if got := d.loops[0].last.Slots(); got > maxRecycledSlots {
		t.Fatalf("next profile drew a table of %d slots, want <= %d", got, maxRecycledSlots)
	}
	d.Close()
}

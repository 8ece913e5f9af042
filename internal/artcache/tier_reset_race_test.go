package artcache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestResetRacesInFlightCallers hammers Do from many goroutines while
// another goroutine calls Reset in a tight loop. Two invariants must
// hold through the churn:
//
//  1. every caller gets the right value — a Reset landing between
//     claim and completion must never hand a waiter a zero value or
//     wedge it on an orphaned done channel;
//  2. runs of the same key never overlap — Reset may only drop
//     completed entries, so while one fn runs, every concurrent caller
//     for that key joins it instead of starting a second run.
//
// Run under -race this also shakes out unsynchronised map access
// between Do's claim path and Reset's sweep.
func TestResetRacesInFlightCallers(t *testing.T) {
	var f Tier[int, int]
	const keys = 4
	var running [keys]atomic.Int32
	var overlaps atomic.Int32
	fn := func(k int) func() (int, error) {
		return func() (int, error) {
			if running[k].Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(50 * time.Microsecond) // widen the in-flight window
			running[k].Add(-1)
			return k * 7, nil
		}
	}

	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Reset()
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % keys
				v, err := f.Do(nil, k, nil, fn(k))
				if err != nil {
					t.Errorf("Do(%d): %v", k, err)
					return
				}
				if v != k*7 {
					t.Errorf("Do(%d) = %d, want %d — Reset corrupted a shared result", k, v, k*7)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	resetter.Wait()

	if n := overlaps.Load(); n > 0 {
		t.Fatalf("%d overlapping runs of one key — Reset dropped an in-flight entry", n)
	}
}

package harness

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
)

// goroutineID reads the calling goroutine's ID from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	return string(b[:bytes.IndexByte(b, ' ')])
}

// TestForEachBoundsGoroutines: forEach over 100 rows at Jobs 2 runs them
// on at most 2 goroutines of its own, and never has more than 2 alive,
// where one goroutine per row would grow 100 stacks.
func TestForEachBoundsGoroutines(t *testing.T) {
	s := newScheduler(context.Background(), 2, nil)
	base := runtime.NumGoroutine()
	var mu sync.Mutex
	ran := map[string]bool{}
	peak := 0
	out := make([]int, 100)
	err := s.forEach(len(out), func(i int) error {
		alive := runtime.NumGoroutine() - base
		mu.Lock()
		ran[goroutineID()] = true
		peak = max(peak, alive)
		mu.Unlock()
		runtime.Gosched() // let the other worker take rows meanwhile
		out[i] = i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i {
			t.Fatalf("row %d holds %d", i, v)
		}
	}
	if len(ran) > 2 || peak > 2 {
		t.Fatalf("100 rows ran on %d goroutines, %d alive at once; want at most 2 each", len(ran), peak)
	}
}

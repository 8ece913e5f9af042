package freelist

import (
	"sync"
	"testing"
)

// TestFreeListLIFO: Get hands back the value most recently Put, as it
// was left, and allocates only when the list is empty; the counters say
// which happened.
func TestFreeListLIFO(t *testing.T) {
	l := New[[4]int](8)
	a, b := l.Get(), l.Get()
	a[0], b[0] = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b || got[0] != 2 {
		t.Fatalf("first Get = %p %v, want the last Put %p", got, got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("second Get = %p, want %p", got, a)
	}
	if got := l.Get(); got == a || got == b || *got != [4]int{} {
		t.Fatalf("Get on an empty list = %p %v, want a new zero value", got, got)
	}
	if fresh, reused := l.Stats(); fresh != 3 || reused != 2 {
		t.Fatalf("Stats = %d fresh, %d reused; want 3, 2", fresh, reused)
	}
}

// TestFreeListBound: the list holds at most its bound; a Put beyond it
// is dropped, and the values it keeps are the first ones Put.
func TestFreeListBound(t *testing.T) {
	l := New[int](2)
	xs := []*int{new(int), new(int), new(int)}
	for _, x := range xs {
		l.Put(x)
	}
	if l.Get() != xs[1] || l.Get() != xs[0] {
		t.Fatal("the list kept other values than the first two")
	}
	if x := l.Get(); x == xs[2] {
		t.Fatal("a Put beyond the bound was kept")
	}
	if fresh, reused := l.Stats(); fresh != 1 || reused != 2 {
		t.Fatalf("Stats = %d fresh, %d reused; want 1, 2", fresh, reused)
	}
}

// TestFreeListConcurrentOwners: goroutines taking and returning values
// at once never hold one value together. Under the race detector a
// shared value is a reported race; without it, the owner marks catch it.
func TestFreeListConcurrentOwners(t *testing.T) {
	l := New[int](4)
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				x := l.Get()
				*x = g
				for j := 0; j < 10; j++ {
					if *x != g {
						t.Errorf("goroutine %d: a value it holds was written by %d", g, *x)
						return
					}
				}
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	if fresh, reused := l.Stats(); fresh+reused != 4000 || fresh > 4 {
		t.Fatalf("Stats = %d fresh, %d reused; want 4000 Gets, at most 4 fresh", fresh, reused)
	}
}

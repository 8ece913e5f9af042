package pool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitRunsTasks(t *testing.T) {
	p := New(4, 100)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(func() { n.Add(1); wg.Done() }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
	p.Close()
	p.Wait()
}

// TestAdmissionBoundExact pins the shedding contract: with cap C and
// depth D, exactly C+D tasks are admitted however the worker
// goroutines are scheduled, and the next submission fails with
// ErrOverloaded.
func TestAdmissionBoundExact(t *testing.T) {
	const c, d = 2, 3
	p := New(c, d)
	release := make(chan struct{})
	for i := 0; i < c+d; i++ {
		if err := p.Submit(func() { <-release }); err != nil {
			t.Fatalf("submission %d rejected: %v", i, err)
		}
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-bound submit: got %v, want ErrOverloaded", err)
	}
	waitFor(t, "both workers busy", func() bool { return p.Running() == c })
	if got := p.Queued(); got != d {
		t.Fatalf("queued %d, want %d", got, d)
	}
	close(release)
	waitFor(t, "queue drained", func() bool { return p.Queued() == 0 && p.Running() == 0 })
	// Capacity freed: submissions are admitted again.
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	<-done
	p.Close()
	p.Wait()
}

func TestCloseRejectsAndDrains(t *testing.T) {
	p := New(1, 8)
	var ran atomic.Int64
	gate := make(chan struct{})
	p.Submit(func() { <-gate; ran.Add(1) })
	for i := 0; i < 3; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if err := p.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: got %v, want ErrClosed", err)
	}
	close(gate)
	p.Wait()
	if ran.Load() != 4 {
		t.Fatalf("queued tasks dropped at close: ran %d, want 4", ran.Load())
	}
}

func TestPanicKeepsWorkerAlive(t *testing.T) {
	p := New(1, 8)
	var caught atomic.Int64
	p.OnPanic = func(v any, stack []byte) {
		if v != "boom" || len(stack) == 0 {
			t.Errorf("OnPanic got (%v, %d-byte stack)", v, len(stack))
		}
		caught.Add(1)
	}
	done := make(chan struct{})
	p.Submit(func() { panic("boom") })
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("task after panic never ran: worker died")
	}
	if caught.Load() != 1 {
		t.Fatalf("OnPanic ran %d times, want 1", caught.Load())
	}
	p.Close()
	p.Wait()
}

// TestConcurrentChurn hammers Submit from many goroutines under the
// race detector; every admitted task must run exactly once.
func TestConcurrentChurn(t *testing.T) {
	p := New(4, 64)
	var admitted, ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				err := p.Submit(func() { ran.Add(1) })
				if err == nil {
					admitted.Add(1)
				} else if !errors.Is(err, ErrOverloaded) {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	p.Wait()
	if ran.Load() != admitted.Load() {
		t.Fatalf("admitted %d tasks but ran %d", admitted.Load(), ran.Load())
	}
}

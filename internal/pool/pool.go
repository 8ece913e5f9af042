// Package pool provides the bounded worker pool behind the janusd job
// system. Tasks are submitted to a FIFO queue with a hard admission
// bound — a full pool rejects the submission immediately with
// ErrOverloaded instead of blocking, which is what lets the daemon
// shed load with a 429 rather than letting latency grow without
// bound. Workers are spawned on demand up to the capacity and park
// when idle; a panicking task never takes its worker down.
package pool

import (
	"errors"
	"runtime/debug"
	"sync"
)

var (
	// ErrClosed rejects submissions to a closed pool.
	ErrClosed = errors.New("pool: closed")
	// ErrOverloaded rejects submissions while the pool is at its
	// admission bound (Cap running + Depth queued). Callers decide the
	// shedding policy (janusd turns it into HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("pool: queue full")
)

// Task is one unit of queued work.
type Task func()

// Pool is a bounded worker pool. The zero value is not usable; call
// New.
type Pool struct {
	mu   sync.Mutex
	cond *sync.Cond

	cap   int // concurrent-task bound
	depth int // queued-task bound beyond the running ones

	queue   []Task
	active  int // tasks executing right now
	workers int // goroutines alive (idle + executing)
	idle    int // workers parked in cond.Wait
	closed  bool

	// OnPanic, when non-nil, observes a panic recovered from a task
	// (value + stack). The worker always survives; by default the panic
	// is swallowed because the submitter is expected to wrap its task
	// with its own recovery and reporting (janusd does).
	OnPanic func(v any, stack []byte)

	done chan struct{} // closed when the last worker exits after Close
}

// New returns a pool running at most workers tasks concurrently and
// admitting at most depth queued tasks beyond the running ones.
// workers is clamped to >= 1 and depth to >= 0, so a pool always
// accepts at least one task.
func New(workers, depth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	p := &Pool{cap: workers, depth: depth, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Submit queues t, spawning a worker if none is idle and the capacity
// allows one. It never blocks. The admission bound is exact: a
// submission is rejected with ErrOverloaded iff active+queued tasks
// already number Cap+Depth, whatever the worker goroutines' scheduling
// looks like at that instant. A closed pool returns ErrClosed.
func (p *Pool) Submit(t Task) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.active+len(p.queue) >= p.cap+p.depth {
		return ErrOverloaded
	}
	p.queue = append(p.queue, t)
	if p.idle > 0 {
		p.cond.Signal()
	} else if p.workers < p.cap {
		p.workers++
		go p.worker()
	}
	return nil
}

// worker runs queued tasks until the pool closes and the queue drains.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.idle++
			p.cond.Wait()
			p.idle--
		}
		if len(p.queue) == 0 {
			break
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.active++
		p.mu.Unlock()
		p.run(t)
		p.mu.Lock()
		p.active--
	}
	p.workers--
	if p.closed && p.workers == 0 {
		close(p.done)
	}
	p.mu.Unlock()
}

// run executes one task, containing panics so a broken task can never
// kill the worker (or the process embedding the pool).
func (p *Pool) run(t Task) {
	defer func() {
		if v := recover(); v != nil {
			if h := p.onPanic(); h != nil {
				h(v, debug.Stack())
			}
		}
	}()
	t()
}

func (p *Pool) onPanic() func(any, []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.OnPanic
}

// Close rejects further submissions and releases the workers once the
// already-queued tasks drain. It does not wait; use Wait for that.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	if p.workers == 0 {
		close(p.done)
	}
	p.cond.Broadcast()
}

// Wait blocks until Close has been called and every worker has exited
// (all queued tasks done).
func (p *Pool) Wait() {
	<-p.done
}

// Cap returns the current concurrent-task bound.
func (p *Pool) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap
}

// Idle returns how many spawned workers are parked waiting for work.
func (p *Pool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle
}

// Running returns how many tasks are executing right now.
func (p *Pool) Running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active
}

// Queued returns the pending-queue depth (submitted, not yet started).
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

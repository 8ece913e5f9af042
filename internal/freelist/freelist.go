// Package freelist recycles large buffers — a machine's page blocks, a
// dependence profile's tables — from the run that closed them to the
// next one.
//
// A List is a bounded LIFO stack behind a mutex. Unlike a sync.Pool it
// keeps what it holds across garbage collections and whichever P a
// goroutine runs on, so "the next run of the same shape draws what the
// last one returned" is a property of the program, not of the
// scheduler. The bound caps what an idle process keeps: a Put beyond it
// leaves the value to the garbage collector.
package freelist

import "sync"

// List is a bounded LIFO free list of *T. The zero value is not
// usable; call New.
type List[T any] struct {
	mu    sync.Mutex
	items []*T
	max   int
	// fresh counts Gets that allocated, reused Gets served from items.
	fresh, reused int64
}

// New returns an empty list that holds at most max values.
func New[T any](max int) *List[T] {
	return &List[T]{max: max}
}

// Get returns the value most recently Put, as its last user left it,
// or a new zero value when the list is empty.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.items)
	if n == 0 {
		l.fresh++
		l.mu.Unlock()
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	l.reused++
	l.mu.Unlock()
	return x
}

// Put hands x to the next Get, or drops it when the list is full. The
// caller must not use x afterwards.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if len(l.items) < l.max {
		l.items = append(l.items, x)
	}
	l.mu.Unlock()
}

// Stats returns how many Gets allocated a new value and how many were
// served a recycled one.
func (l *List[T]) Stats() (fresh, reused int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fresh, l.reused
}

package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The experiment scheduler: every figure/table experiment, and every
// benchmark row inside an experiment, is a schedulable unit. Rows from
// all experiments share one bounded worker pool, and every result is
// written into an index-addressed slot, so completion order never
// affects rendered output — the suite is byte-identical at any Jobs
// value and any GOMAXPROCS. The shared state the units touch is
// concurrency-clean by construction: engine selection is per-run
// configuration (Options), workload builds are cached per (name,
// input, opt), and the baseline memos in package janus have
// singleflight semantics, so concurrent rows share one native run and
// one train profile per binary instead of duplicating them.
//
// Failure is contained per experiment: the first erroring (or
// panicking) row abandons that experiment's remaining rows, but
// sibling experiments sharing the pool keep running, so RenderAll can
// report every healthy figure alongside the failed one.
//
// The scheduler also carries the run's context: when it is cancelled
// or its deadline passes, rows that have not started are abandoned
// with ErrCanceled instead of running the experiment to completion.
// Rows already executing run to their natural end — the simulated
// engines are not interruptible mid-row, and a finished row is the
// cheapest consistent state to stop in.

// ErrCanceled reports a run abandoned because its context was
// cancelled or its deadline passed before every row ran. It wraps the
// context's own error, so errors.Is matches both ErrCanceled and
// context.Canceled / context.DeadlineExceeded.
var ErrCanceled = errors.New("harness: run canceled")

// canceledErr ties ErrCanceled to the context's cause.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
}

// ProgressEvent is one tick of a running suite render, delivered to
// Options.OnProgress. Experiment-level events carry the artefact name
// and a State of "start", "done" or "failed"; row-level ticks have
// State "row" with an empty Experiment.
type ProgressEvent struct {
	Experiment string
	State      string
}

// scheduler bounds row-level concurrency across the whole suite.
type scheduler struct {
	ctx        context.Context
	slots      chan struct{}
	onProgress func(ProgressEvent)
}

// newScheduler returns a scheduler running at most jobs rows at once
// under ctx. onProgress may be nil; when set it is called from
// concurrent worker goroutines and must be safe for concurrent use.
func newScheduler(ctx context.Context, jobs int, onProgress func(ProgressEvent)) *scheduler {
	if ctx == nil {
		ctx = context.Background()
	}
	if jobs < 1 {
		jobs = 1
	}
	return &scheduler{ctx: ctx, slots: make(chan struct{}, jobs), onProgress: onProgress}
}

// emit delivers a progress event.
func (s *scheduler) emit(ev ProgressEvent) {
	if s.onProgress != nil {
		s.onProgress(ev)
	}
}

// forEach runs f(0..n-1) on the bounded pool and returns the
// lowest-index error. Each call acquires one slot; experiments fan
// their rows out through this, so nested units never hold a slot while
// waiting on children. A panicking row is recovered into an error
// carrying its stack, so one broken experiment can never take down a
// long-lived process embedding the harness. A cancelled context
// abandons every not-yet-started row with ErrCanceled.
func (s *scheduler) forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	// failed is scoped to this call: it abandons this experiment's
	// not-yet-started rows once one fails (their work would be wasted),
	// never sibling experiments'. Which rows ran before noticing the
	// flag can depend on host scheduling; whether the experiment fails
	// never does.
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.slots <- struct{}{}
			defer func() { <-s.slots }()
			if s.ctx.Err() != nil {
				// Cancellation outranks sibling failures: the caller sees
				// the typed cancel error for every abandoned row.
				errs[i] = canceledErr(s.ctx)
				return
			}
			if failed.Load() {
				return
			}
			defer func() {
				if p := recover(); p != nil {
					failed.Store(true)
					errs[i] = fmt.Errorf("row %d panicked: %v\n%s", i, p, debug.Stack())
				}
			}()
			if err := f(i); err != nil {
				failed.Store(true)
				errs[i] = err
				return
			}
			s.emit(ProgressEvent{State: "row"})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"janus/internal/workloads"
)

// Experiment is one evaluation artefact: a figure or table the suite
// can regenerate and render.
type Experiment struct {
	// Name is the artefact selector ("fig6".."fig12", "tab1", "tab2").
	Name string
	// benches names the experiment's rows, one per benchmark, in print
	// order; tab2 has none.
	benches []string
	// bind gives one render's row function, which computes row i into a
	// slot of its own, and the fold that renders the filled slots.
	bind func(*render) (row func(i int) error, text func() string)
}

// experiment declares an experiment whose row for each of benches is
// computed by row and whose rows are rendered by text.
func experiment[T any](name string, benches []string, row func(*render, string) (T, error), text func([]T) string) Experiment {
	return Experiment{name, benches, func(r *render) (func(int) error, func() string) {
		out := make([]T, len(benches))
		return func(i int) (err error) {
			out[i], err = row(r, benches[i])
			return err
		}, func() string { return text(out) }
	}}
}

// suite lists every experiment in print order.
var suite = []Experiment{
	experiment("fig6", workloads.Names(), figure6, RenderFigure6),
	experiment("fig7", workloads.ParallelisableNames(), figure7, RenderFigure7),
	experiment("fig8", workloads.ParallelisableNames(), figure8, RenderFigure8),
	experiment("fig9", workloads.ParallelisableNames(), figure9, RenderFigure9),
	experiment("fig10", workloads.ParallelisableNames(), figure10, RenderFigure10),
	experiment("fig11", workloads.ParallelisableNames(), figure11, RenderFigure11),
	experiment("fig12", workloads.ParallelisableNames(), figure12, RenderFigure12),
	experiment("tab1", workloads.ParallelisableNames(), tableI, RenderTableI),
	experiment("tab2", nil, nil, func([]struct{}) string { return TableII() }),
}

// ErrNoExperiment is returned, wrapped, for a selection naming a
// figure outside 6..12 or a table outside 1..2.
var ErrNoExperiment = errors.New("no such experiment")

// ErrCanceled reports a run abandoned because its context was
// cancelled or its deadline passed before every row ran. It wraps the
// context's own error, so errors.Is matches both ErrCanceled and
// context.Canceled / context.DeadlineExceeded.
var ErrCanceled = errors.New("harness: run canceled")

// ProgressEvent is one tick of a running suite render, delivered to
// Options.OnProgress. Experiment-level events carry the artefact name
// and a State of "start", "done" or "failed"; row-level ticks have
// State "row" with an empty Experiment.
type ProgressEvent struct {
	Experiment string
	State      string
}

// Experiments returns the experiments fig and table select, in print
// order: both zero select everything, otherwise each nonzero one must
// name an experiment. A service calls it to refuse a request that names
// no experiment without admitting it.
func Experiments(fig, table int) ([]Experiment, error) {
	names := map[string]bool{}
	if fig != 0 {
		names[fmt.Sprintf("fig%d", fig)] = true
	}
	if table != 0 {
		names[fmt.Sprintf("tab%d", table)] = true
	}
	var selected []Experiment
	for _, e := range suite {
		if len(names) == 0 || names[e.Name] {
			selected = append(selected, e)
		}
	}
	if len(selected) < len(names) {
		return nil, fmt.Errorf("harness: fig %d, table %d: %w (figures 6..12, tables 1..2)", fig, table, ErrNoExperiment)
	}
	return selected, nil
}

// RenderAll regenerates the selected experiments — fig/table of 0
// select everything, otherwise a single figure (6..12) or table (1..2);
// any other value is an ErrNoExperiment — and returns the concatenated
// text output exactly as janus-bench prints it. Every benchmark row of
// every selected experiment goes on one queue that Options.Jobs
// goroutines drain, and the experiments are folded back in the fixed
// suite order: the returned bytes are identical at any Jobs value and
// any GOMAXPROCS.
//
// Failure is partial: an experiment with a failing (or panicking) row
// is replaced in the output by a one-line failure marker naming its
// lowest-index failing row, while every other experiment renders
// normally, and the joined errors are returned alongside the partial
// output. A failed row abandons no other row, so the partial output too
// is identical at any Jobs value.
func RenderAll(o Options, fig, table int) (string, error) {
	return RenderAllContext(context.Background(), o, fig, table)
}

// RenderAllContext is RenderAll under a context: when ctx is cancelled
// or its deadline passes, benchmark rows that have not started are
// abandoned with ErrCanceled (rows already executing finish), so a
// service can bound how long a render request may run. Progress events
// flow to Options.OnProgress when set.
func RenderAllContext(ctx context.Context, o Options, fig, table int) (string, error) {
	r, err := newRender(o)
	if err != nil {
		return "", err
	}
	selected, err := Experiments(fig, table)
	if err != nil {
		return "", err
	}
	return r.renderAll(ctx, selected)
}

// renderAll lists every row of selected, experiment first, then
// benchmark, and runs the list on Jobs goroutines, each taking the next
// row by index. Rows meet only in the run table. The calling goroutine
// folds each experiment once its last row has finished.
func (r *render) renderAll(ctx context.Context, selected []Experiment) (string, error) {
	emit := func(ev ProgressEvent) {
		if r.o.OnProgress != nil {
			r.o.OnProgress(ev)
		}
	}
	type slot struct{ e, i int }
	var queue []slot
	rows := make([]func(int) error, len(selected))
	texts := make([]func() string, len(selected))
	pending := make([]sync.WaitGroup, len(selected))
	for e, x := range selected {
		rows[e], texts[e] = x.bind(r)
		pending[e].Add(len(x.benches))
		for i := range x.benches {
			queue = append(queue, slot{e, i})
		}
	}

	// run runs one row unless the context is already dead, recovering a
	// panic into an error that carries its stack. An experiment starts
	// when its first row is taken.
	errs := make([]error, len(queue))
	run := func(k int) (err error) {
		s := queue[k]
		bench := selected[s.e].benches[s.i]
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("%s: row panicked: %v\n%s", bench, p, debug.Stack())
			}
		}()
		if s.i == 0 {
			emit(ProgressEvent{Experiment: selected[s.e].Name, State: "start"})
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
		}
		if err := rows[s.e](s.i); err != nil {
			return fmt.Errorf("%s: %w", bench, err)
		}
		emit(ProgressEvent{State: "row"})
		return nil
	}
	var next atomic.Int64
	var workers sync.WaitGroup
	for range min(r.o.Jobs, len(queue)) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for k := int(next.Add(1)) - 1; k < len(queue); k = int(next.Add(1)) - 1 {
				errs[k] = run(k)
				pending[queue[k].e].Done()
			}
		}()
	}

	var b strings.Builder
	var failures []error
	first := 0 // the experiment's first row in the queue
	for e, x := range selected {
		if len(x.benches) == 0 {
			emit(ProgressEvent{Experiment: x.Name, State: "start"})
		}
		pending[e].Wait()
		var err error
		for _, rowErr := range errs[first : first+len(x.benches)] {
			if rowErr != nil {
				err = rowErr
				break
			}
		}
		first += len(x.benches)
		if err != nil {
			failures = append(failures, fmt.Errorf("%s: %w", x.Name, err))
			fmt.Fprintf(&b, "[%s failed: %v]\n\n", x.Name, err)
			emit(ProgressEvent{Experiment: x.Name, State: "failed"})
			continue
		}
		// Matches fmt.Println of each rendered block.
		b.WriteString(texts[e]())
		b.WriteString("\n")
		emit(ProgressEvent{Experiment: x.Name, State: "done"})
	}
	workers.Wait()
	return b.String(), errors.Join(failures...)
}

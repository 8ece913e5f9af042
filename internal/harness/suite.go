package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
)

// Experiment is one schedulable evaluation artefact: a figure or table
// the suite can regenerate and render.
type Experiment struct {
	// Name is the artefact selector ("fig6".."fig12", "tab1", "tab2").
	Name   string
	render func(*render) (string, error)
}

// rendered pairs an experiment's row computation with its renderer.
func rendered[T any](rows func(*render) (T, error), text func(T) string) func(*render) (string, error) {
	return func(r *render) (string, error) {
		v, err := rows(r)
		if err != nil {
			return "", err
		}
		return text(v), nil
	}
}

// suite lists every experiment in print order.
var suite = []Experiment{
	{"fig6", rendered(figure6, RenderFigure6)},
	{"fig7", rendered(figure7, RenderFigure7)},
	{"fig8", rendered(figure8, RenderFigure8)},
	{"fig9", rendered(figure9, RenderFigure9)},
	{"fig10", rendered(figure10, RenderFigure10)},
	{"fig11", rendered(figure11, RenderFigure11)},
	{"fig12", rendered(figure12, RenderFigure12)},
	{"tab1", rendered(tableI, RenderTableI)},
	{"tab2", func(*render) (string, error) { return TableII(), nil }},
}

// ErrNoExperiment is returned, wrapped, for a selection naming a
// figure outside 6..12 or a table outside 1..2.
var ErrNoExperiment = errors.New("no such experiment")

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
// text output exactly as janus-bench prints it. All experiments run
// concurrently, their benchmark rows scheduled on one worker pool
// bounded by Options.Jobs, and the results are folded back in the fixed
// suite order: the returned bytes are identical at any Jobs value and
// any GOMAXPROCS.
//
// Failure is partial: an experiment that errors (or panics — the
// scheduler and RenderAll both recover) is replaced in the output by a
// one-line failure marker while every other experiment renders
// normally, and the joined errors are returned alongside the partial
// output. When every experiment succeeds the output is byte-identical
// to what the all-or-nothing path produced.
func RenderAll(o Options, fig, table int) (string, error) {
	return RenderAllContext(context.Background(), o, fig, table)
}

// RenderAllContext is RenderAll under a context: when ctx is cancelled
// or its deadline passes, benchmark rows that have not started are
// abandoned with ErrCanceled (rows already executing finish), so a
// service can bound how long a render request may run. Progress events
// flow to Options.OnProgress when set.
func RenderAllContext(ctx context.Context, o Options, fig, table int) (string, error) {
	return launch(ctx, o, func(r *render) (string, error) {
		return renderAll(r, fig, table)
	})
}

func renderAll(r *render, fig, table int) (string, error) {
	selected, err := Experiments(fig, table)
	if err != nil {
		return "", err
	}
	s := r.s

	outs := make([]string, len(selected))
	errs := make([]error, len(selected))
	var wg sync.WaitGroup
	for i, e := range selected {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			// Rows recover their own panics (scheduler.forEach); this
			// catches panics in the experiment glue itself.
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("experiment panicked: %v\n%s", p, debug.Stack())
					s.emit(ProgressEvent{Experiment: e.Name, State: "failed"})
				}
			}()
			s.emit(ProgressEvent{Experiment: e.Name, State: "start"})
			outs[i], errs[i] = e.render(r)
			if errs[i] != nil {
				s.emit(ProgressEvent{Experiment: e.Name, State: "failed"})
			} else {
				s.emit(ProgressEvent{Experiment: e.Name, State: "done"})
			}
		}(i, e)
	}
	wg.Wait()
	var b strings.Builder
	var failures []error
	for i, out := range outs {
		if errs[i] != nil {
			failures = append(failures, fmt.Errorf("%s: %w", selected[i].Name, errs[i]))
			fmt.Fprintf(&b, "[%s failed: %v]\n\n", selected[i].Name, errs[i])
			continue
		}
		// Matches fmt.Println of each rendered block.
		b.WriteString(out)
		b.WriteString("\n")
	}
	if len(failures) > 0 {
		return b.String(), errors.Join(failures...)
	}
	return b.String(), nil
}

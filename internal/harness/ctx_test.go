package harness

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"janus"
	"janus/internal/workloads"
)

// TestRenderAllContextPreCanceled: a context cancelled before the
// render starts must abandon every row with the typed cancel error —
// no experiment work runs at all.
func TestRenderAllContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	out, err := RenderAllContext(ctx, DefaultOptions(), 0, 0)
	if err == nil {
		t.Fatal("cancelled render returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("error %v does not match harness.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not match context.Canceled", err)
	}
	if !strings.Contains(out, "failed:") {
		t.Fatalf("partial output lacks failure markers:\n%s", out)
	}
	// tab2 is static data and needs no rows, so it renders even under a
	// dead context — partial output is the contract.
	if !strings.Contains(out, "Table II") {
		t.Fatalf("static tab2 should render under a dead context:\n%s", out)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled render still took %v", elapsed)
	}
}

// failedRunRender is a render at jobs whose run table already holds a
// failed run, for each benchmark of causes, of the one spec figures
// 7–12 and Table I all project from.
func failedRunRender(jobs int, causes map[string]error) *render {
	o := DefaultOptions()
	o.Jobs = jobs
	r := &render{o: o}
	for bench, cause := range causes {
		r.runs.Do(nil, runSpec{bench, workloads.O3, o.Threads, full}, nil, func() (*janus.Report, error) {
			return nil, cause
		})
	}
	return r
}

// TestFailedSharedRunFailsEveryProjection: a run the table remembers
// as failed marks every experiment that reads it with the same error,
// while experiments that never ask for it render normally.
func TestFailedSharedRunFailsEveryProjection(t *testing.T) {
	if testing.Short() {
		t.Skip("most of a full-suite render; run without -short")
	}
	boom := errors.New("boom")
	r := failedRunRender(DefaultOptions().Jobs, map[string]error{"470.lbm": boom})
	out, err := r.renderAll(context.Background(), suite)
	if !errors.Is(err, boom) {
		t.Fatalf("render error %v does not wrap the failed run's", err)
	}
	for _, name := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "tab1"} {
		if marker := "[" + name + " failed: 470.lbm: boom]\n"; !strings.Contains(out, marker) {
			t.Errorf("output lacks %q", marker)
		}
	}
	for _, healthy := range []string{"Figure 6:", "Table II:"} {
		if !strings.Contains(out, healthy) {
			t.Errorf("%q should render beside the failed experiments", healthy)
		}
	}
	if n := strings.Count(out, "failed:"); n != 7 {
		t.Errorf("%d failure markers, want 7:\n%s", n, out)
	}
}

// TestPreCanceledOutranksFailedRun: cancellation is decided before a
// row consults the run table, so a dead context reports ErrCanceled
// even when the table holds a failure for the run the row would read.
func TestPreCanceledOutranksFailedRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("boom")
	r := failedRunRender(DefaultOptions().Jobs, map[string]error{"470.lbm": boom})
	_, err := r.renderAll(ctx, suite)
	if !errors.Is(err, ErrCanceled) || errors.Is(err, boom) {
		t.Fatalf("want ErrCanceled and no table error, got %v", err)
	}
}

// TestFigureContextDeadline: a deadline expiring mid-run aborts
// pending rows with ErrCanceled wrapping context.DeadlineExceeded.
func TestFigureContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	o := DefaultOptions()
	o.Jobs = 1
	if _, err := RenderAllContext(ctx, o, 6, 0); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled wrapping DeadlineExceeded, got %v", err)
	}
}

// TestCancelMidRender cancels while rows are in flight: the render
// returns promptly with the typed error instead of running the suite
// to completion, and rows already executing finish cleanly.
func TestCancelMidRender(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o := DefaultOptions()
	var once sync.Once
	o.OnProgress = func(ev ProgressEvent) {
		if ev.State == "row" {
			once.Do(cancel) // first completed row pulls the plug
		}
	}
	_, err := RenderAllContext(ctx, o, 0, 0)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-render cancel: want ErrCanceled, got %v", err)
	}
}

// TestProgressEvents pins the progress-hook contract on a cheap
// render: experiment start/done events arrive for the selected
// experiment and observing them does not change the rendered bytes.
func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []ProgressEvent
	o := DefaultOptions()
	o.OnProgress = func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	withHook, err := RenderAll(o, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RenderAll(DefaultOptions(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if withHook != plain {
		t.Fatal("progress observation changed rendered bytes")
	}
	mu.Lock()
	defer mu.Unlock()
	var sawStart, sawDone bool
	for _, ev := range events {
		if ev.Experiment == "tab2" && ev.State == "start" {
			sawStart = true
		}
		if ev.Experiment == "tab2" && ev.State == "done" {
			sawDone = true
		}
	}
	if !sawStart || !sawDone {
		t.Fatalf("missing tab2 start/done events: %+v", events)
	}
}

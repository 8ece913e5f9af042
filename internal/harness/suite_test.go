package harness

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
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

// TestRowsRunOnJobsGoroutines: a full render at Jobs 2 runs its 88 rows
// on at most 2 goroutines, however many experiments it selects, and
// each experiment starts once and is done once, after its own rows and
// every earlier experiment's. The render observed is the second in the
// session, which memory serves.
func TestRowsRunOnJobsGoroutines(t *testing.T) {
	o := DefaultOptions()
	o.Jobs = 2
	if _, err := RenderAll(o, 0, 0); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := map[string]bool{}
	rows := 0
	started := map[string]int{}
	doneAfter := map[string]int{} // rows finished when the experiment was done
	o.OnProgress = func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.State {
		case "row":
			ran[goroutineID()] = true
			rows++
		case "start":
			started[ev.Experiment]++
		case "done":
			if _, twice := doneAfter[ev.Experiment]; twice {
				t.Errorf("%s done twice", ev.Experiment)
			}
			doneAfter[ev.Experiment] = rows
		default:
			t.Errorf("unexpected event %+v", ev)
		}
	}
	if _, err := RenderAll(o, 0, 0); err != nil {
		t.Fatal(err)
	}
	if rows != 88 || len(ran) > 2 {
		t.Fatalf("%d rows ran on %d goroutines; want 88 rows on at most 2", rows, len(ran))
	}
	through := 0
	for _, e := range suite {
		through += len(e.benches)
		if started[e.Name] != 1 || doneAfter[e.Name] < through {
			t.Errorf("%s: %d start events, done after %d rows; want 1, and done after at least %d", e.Name, started[e.Name], doneAfter[e.Name], through)
		}
	}
}

// TestPartialOutputIdenticalAtAnyJobs: with the shared run of two
// benchmarks failed differently, every experiment reading it reports
// its lowest-index failing row, 433.milc, and the partial output is the
// same bytes at any Jobs: a failed row abandons no sibling, so which
// rows ran never depends on host scheduling.
func TestPartialOutputIdenticalAtAnyJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("three renders of most of the suite; run without -short")
	}
	milc, lbm := errors.New("milc broke"), errors.New("lbm broke")
	causes := map[string]error{"433.milc": milc, "470.lbm": lbm}
	var want string
	for _, jobs := range []int{1, 2, 4} {
		out, err := failedRunRender(jobs, causes).renderAll(context.Background(), suite)
		if !errors.Is(err, milc) || errors.Is(err, lbm) {
			t.Fatalf("jobs %d: render error %v; want milc's failure and not lbm's", jobs, err)
		}
		for _, name := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "tab1"} {
			if marker := "[" + name + " failed: 433.milc: milc broke]\n"; !strings.Contains(out, marker) {
				t.Errorf("jobs %d: output lacks %q", jobs, marker)
			}
		}
		if n := strings.Count(out, "failed:"); n != 7 {
			t.Errorf("jobs %d: %d failure markers, want 7:\n%s", jobs, n, out)
		}
		if jobs == 1 {
			want = out
		} else if out != want {
			t.Errorf("partial output at jobs %d differs from jobs 1:\n%s\n--- jobs 1 ---\n%s", jobs, out, want)
		}
	}
}

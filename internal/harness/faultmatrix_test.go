package harness

// Fault-injection matrix: every injection point, under the default
// engine configuration (the speculative engine with work stealing on,
// which still runs the suite's non-subdividable regions at one piece
// per thread), at GOMAXPROCS 1 and N, must leave the full
// janus-bench output byte-identical to the committed golden fixture —
// recovery re-executes every failed region round-robin, and nothing
// about a recovered run may leak into a figure. Each cell also asserts
// the recovery path actually ran (an injection plan that never fires
// would pass the golden comparison vacuously).

import (
	"fmt"
	"runtime"
	"testing"

	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/workloads"
)

func TestFaultInjectionMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("8 full-suite renders; run without -short")
	}
	want := readGolden(t)
	procsN := max(runtime.NumCPU(), 4)
	for _, spec := range []string{"scan-defeat", "worker-panic", "stall", "budget"} {
		for _, procs := range []int{1, procsN} {
			name := fmt.Sprintf("%s/steal/gomaxprocs=%d", spec, procs)
			t.Run(name, func(t *testing.T) {
				plan, err := faultinject.ParsePlan(spec)
				if err != nil {
					t.Fatal(err)
				}
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)

				o := DefaultOptions()
				o.Inject = plan
				o.Recovery = &RecoveryLog{}
				diffGolden(t, name, renderSuite(t, o), want)
				if o.Recovery.ParRecoveries.Load() == 0 {
					t.Errorf("injection %q never triggered a recovery", spec)
				}
				if o.Recovery.DemotedLoops.Load() == 0 {
					t.Errorf("recovery ran but demoted no loop")
				}
			})
		}
	}
}

// TestDefaultSuiteRunsOnePieceRegions pins that the matrix above covers
// both subdivision factors of the speculative engine: under default
// options figure 7's Janus runs send some scan-eligible regions through
// it at one piece per thread (HostParRegions counts every eligible
// region, StealRegions only the subdivided ones), and an injected fault
// in such a region recovers like any other.
func TestDefaultSuiteRunsOnePieceRegions(t *testing.T) {
	// One render per injection plan: a render's run table holds each
	// spec once, and the plan is a render-wide option.
	run := func(name string, mode runMode, plan *faultinject.Plan) dbm.Stats {
		t.Helper()
		o := DefaultOptions()
		o.Inject = plan
		rep, err := (&render{o: o}).janus(name, workloads.O3, o.Threads, mode)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats
	}
	plan, err := faultinject.ParsePlan("scan-defeat")
	if err != nil {
		t.Fatal(err)
	}
	var hostPar, steal int64
	recovered := false
	for _, name := range workloads.ParallelisableNames() {
		for _, mode := range []runMode{staticOnly, profiled, full} {
			st := run(name, mode, nil)
			hostPar += st.HostParRegions
			steal += st.StealRegions
			if !recovered && st.HostParRegions > 0 && st.StealRegions == 0 {
				// Every speculative region of this run is one-piece, so
				// any recovery under injection came from one.
				recovered = true
				if inj := run(name, mode, plan); inj.ParRecoveries == 0 {
					t.Errorf("%s (%s): injected one-piece region never recovered (stats %+v)", name, mode, inj)
				}
			}
		}
	}
	if hostPar <= steal {
		t.Errorf("default figure 7 ran no one-piece speculative region: HostParRegions %d, StealRegions %d", hostPar, steal)
	}
	if !recovered {
		t.Error("no figure 7 run has only one-piece speculative regions; the injected-recovery check never ran")
	}
}

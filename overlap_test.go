package janus

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// fullConfig is figure 7's last bar at four threads, verified.
var fullConfig = Config{Threads: 4, UseProfile: true, UseChecks: true, Verify: true}

// buildPair returns the ref and train builds of 470.lbm at O3.
func buildPair(t *testing.T) (ref, train *obj.Executable, libs []*obj.Library) {
	t.Helper()
	ref, libs, err := workloads.Build("470.lbm", workloads.Ref, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err = workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	return ref, train, libs
}

// unloadable is a lazy handle on bin's identity whose image load fails
// with err.
func unloadable(bin *obj.Binary, err error) *obj.Binary {
	return obj.Lazy(bin.ID(), bin.CodeSize(), func() (*obj.Executable, []*obj.Library, error) {
		return nil, nil, err
	}, nil)
}

// settle fails the test unless the goroutine count comes back to base:
// a stage started beside a call must have ended when the call returns
// (it may take a moment to exit after it has been joined).
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the call (%d before it)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicking is a lazy handle on bin's identity whose image load panics
// with v.
func panicking(bin *obj.Binary, v any) *obj.Binary {
	return obj.Lazy(bin.ID(), bin.CodeSize(), func() (*obj.Executable, []*obj.Library, error) {
		panic(v)
	}, nil)
}

// recovered runs f and returns what it panicked with.
func recovered(t *testing.T, f func() error) (p any) {
	t.Helper()
	defer func() { p = recover() }()
	err := f()
	t.Errorf("returned (%v) instead of panicking", err)
	return nil
}

// TestOverlapAsksEachStageOnce: running stages beside each other changes
// no tier's counts. Each call asks the native tier once — a first ask
// computes, a later one is a memory hit — and every other stage is asked
// exactly as often as a run in a row asks it. A baseline memory holds
// starts no goroutine, and a plan memory or the store held says its
// baseline need not either.
func TestOverlapAsksEachStageOnce(t *testing.T) {
	refExe, trainExe, libs := buildPair(t)
	s := NewSession(nil)
	ref := s.BinaryOf(refExe, libs...)
	st := s.startNative(nil, ref)
	if st == nil {
		t.Fatal("a baseline missing from memory was not started on a goroutine")
	}
	if _, err := s.joinNative(st, nil, ref); err != nil {
		t.Fatal(err)
	}
	if s.startNative(nil, ref) != nil {
		t.Fatal("a baseline held in memory was started on a goroutine")
	}
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		if _, computed, err := s.planCached(c, ref, nil, Config{}.Selection()); err != nil || computed != want {
			t.Fatalf("plan lookup %d: computed %t (%v), want %t", i, computed, err, want)
		}
	}
	if _, computed, err := NewSession(nil).planCached(c, ref, nil, Config{}.Selection()); err != nil || computed {
		t.Fatalf("a plan replayed from the store reads as computed (%v)", err)
	}

	s = NewSession(nil)
	ref, train := s.BinaryOf(refExe, libs...), s.BinaryOf(trainExe, libs...)
	full, err := ParalleliseBinary(ref, train, Config{Threads: 4, UseProfile: true, UseChecks: true, Verify: true, Session: s})
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := ParalleliseBinary(ref, train, Config{Threads: 8, UseProfile: true, Verify: true, Session: s})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanCached(nil, ref, train, fullConfig.Selection())
	if err != nil {
		t.Fatal(err)
	}
	native, res, err := s.RunPlanBinary(nil, ref, plan, dbm.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if native != full.Native || native != profiled.Native || res != full.DBM {
		t.Fatal("the three runs were not handed one baseline and one memoised DBM run")
	}
	for _, c := range []struct {
		stage     string
		got, want artcache.TierStats
	}{
		{"native", s.native.Stats(), artcache.TierStats{MemHits: 2, Computed: 1}},
		{"train analysis", s.analyze.Stats(), artcache.TierStats{MemHits: 1, Computed: 1}},
		{"profile", s.profile.Stats(), artcache.TierStats{MemHits: 1, Computed: 1}},
		{"plan", s.plans.Stats(), artcache.TierStats{MemHits: 1, Computed: 2}},
		{"dbm", s.runs.Stats(), artcache.TierStats{MemHits: 1, Computed: 2}},
	} {
		if c.got != c.want {
			t.Errorf("%s tier counted %+v, a run in a row counts %+v", c.stage, c.got, c.want)
		}
	}
}

// TestOverlapLeavesNoGoroutine: the stages started beside a call are
// joined before it returns, whether the call succeeds, its plan fails
// while ref's analysis is running beside it, or its DBM run panics
// while the native baseline is running beside it.
func TestOverlapLeavesNoGoroutine(t *testing.T) {
	refExe, trainExe, libs := buildPair(t)
	base := runtime.NumGoroutine()
	s := NewSession(nil)
	cfg := fullConfig
	cfg.Session = s
	if _, err := ParalleliseBinary(s.BinaryOf(refExe, libs...), s.BinaryOf(trainExe, libs...), cfg); err != nil {
		t.Fatal(err)
	}
	settle(t, base)

	s = NewSession(nil)
	cfg.Session = s
	noTrain := errors.New("train image unavailable")
	_, err := ParalleliseBinary(s.BinaryOf(refExe, libs...), unloadable(s.BinaryOf(trainExe, libs...), noTrain), cfg)
	if !errors.Is(err, noTrain) || !strings.HasPrefix(err.Error(), "janus: train analysis:") {
		t.Fatalf("plan over an unloadable train binary: %v", err)
	}
	settle(t, base)

	// A panic on the caller's side waits for the stage beside it: ref's
	// image load is held until the test releases it, so a call that
	// ends before the release has left ref's analysis running.
	release := make(chan struct{})
	held := obj.Lazy("held", len(refExe.Code), func() (*obj.Executable, []*obj.Library, error) {
		<-release
		return refExe, libs, nil
	}, nil)
	cfg.Session = NewSession(nil)
	ended := make(chan any, 1)
	go func() {
		defer func() { ended <- recover() }()
		ParalleliseBinary(held, panicking(BinaryOf(trainExe, libs...), "train load panicked"), cfg)
	}()
	select {
	case p := <-ended:
		t.Fatalf("the call ended (%v) while ref's analysis beside it was still loading", p)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if p := <-ended; p != "train load panicked" {
		t.Fatalf("recovered %v, want the train load's panic", p)
	}
	settle(t, base)

	// A DBM run that panics on the caller waits for the baseline started
	// beside it: the store holds both results, the baseline's decode is
	// held until the test releases it, and the DBM run's decode panics.
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eager := BinaryOf(refExe, libs...)
	bare := dbm.Config{Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}
	if _, _, err := NewSession(nil).runSchedule(c, eager, nil, noSchedule, bare, true); err != nil {
		t.Fatal(err)
	}
	s = NewSession(nil)
	hold := make(chan struct{})
	decodeNative := s.native.Decode
	s.native.Decode = func(b []byte) (*vm.Result, error) {
		<-hold
		return decodeNative(b)
	}
	s.runs.Decode = func([]byte) (*dbm.Result, error) { panic("DBM run panicked") }
	go func() {
		defer func() { ended <- recover() }()
		s.runSchedule(c, eager, nil, noSchedule, bare, true)
	}()
	select {
	case p := <-ended:
		t.Fatalf("the call ended (%v) while the baseline beside it was still running", p)
	case <-time.After(100 * time.Millisecond):
	}
	close(hold)
	if p := <-ended; p != "DBM run panicked" {
		t.Fatalf("recovered %v, want the DBM run's panic", p)
	}
	if st := s.native.Stats(); st.Computed != 0 || st.StoreHits != 1 {
		t.Fatalf("the baseline was not the store's: %+v", st)
	}
	settle(t, base)
}

// TestOverlapErrorOrder: stages that run side by side fail in the order
// a run in a row reaches them — ref before train, the native run before
// the DBM run.
func TestOverlapErrorOrder(t *testing.T) {
	refExe, trainExe, libs := buildPair(t)
	eager, train := BinaryOf(refExe, libs...), BinaryOf(trainExe, libs...)
	noRef, noTrain := errors.New("ref image unavailable"), errors.New("train image unavailable")
	cfg := fullConfig
	cfg.Session = NewSession(nil)
	if _, err := ParalleliseBinary(unloadable(eager, noRef), unloadable(train, noTrain), cfg); !errors.Is(err, noRef) {
		t.Fatalf("ref and train both unloadable: %v, want ref's error", err)
	}

	plan, err := NewSession(nil).PlanCached(nil, eager, nil, cfg.Selection())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(nil)
	_, _, err = s.runSchedule(nil, unloadable(eager, noRef), plan.Schedule, plan.digest, dbm.DefaultConfig(4), true)
	if !errors.Is(err, noRef) || !strings.HasPrefix(err.Error(), "janus: native run:") {
		t.Fatalf("baseline and DBM run both failing: %v, want the native run's error", err)
	}
	if st := s.runs.Stats(); st.Computed != 1 {
		t.Fatalf("the DBM run was not attempted beside the baseline: %+v", st)
	}
}

// TestOverlapPanicReachesCaller: a panic in a stage started on its own
// goroutine is raised again on the caller's, where a recover — the
// harness row's, janusd's job's — can contain it, and the goroutine is
// gone by then. Ref's analysis runs beside the training stage, and the
// baseline beside a DBM run the store replays, so in both calls the
// started stage is the only one that loads the image.
func TestOverlapPanicReachesCaller(t *testing.T) {
	refExe, trainExe, libs := buildPair(t)
	eager := BinaryOf(refExe, libs...)
	const boom = "image load panicked"
	base := runtime.NumGoroutine()
	cfg := fullConfig
	cfg.Session = NewSession(nil)
	got := recovered(t, func() error {
		_, err := ParalleliseBinary(panicking(eager, boom), BinaryOf(trainExe, libs...), cfg)
		return err
	})
	if got != boom {
		t.Fatalf("ParalleliseBinary recovered %v, want the load's panic %q", got, boom)
	}
	settle(t, base)

	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(nil).RunBareDBMBinary(c, eager); err != nil {
		t.Fatal(err)
	}
	s := NewSession(nil)
	got = recovered(t, func() error {
		_, _, err := s.runSchedule(c, panicking(eager, boom), nil, noSchedule, dbm.Config{Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}, true)
		return err
	})
	if got != boom {
		t.Fatalf("a started baseline's panic: recovered %v, want %q", got, boom)
	}
	if st := s.runs.Stats(); st.Computed != 0 {
		t.Fatalf("the DBM run was computed, not replayed: %+v", st)
	}
	settle(t, base)
}

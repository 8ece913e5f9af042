package dbm_test

import (
	"fmt"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/dbm"
	"janus/internal/genkern"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// survives restates which rules a configuration keeps: profiling rules
// under Profile, except the external-call pair, which no configuration
// keeps (the analyser no longer emits it; older schedule files may
// carry it), and every other rule under Parallel.
func survives(r rules.Rule, cfg dbm.Config) bool {
	switch r.ID {
	case rules.PROF_LOOP_START, rules.PROF_LOOP_FINISH, rules.PROF_LOOP_ITER, rules.PROF_MEM_ACCESS:
		return cfg.Profile
	case rules.PROF_EXCALL_START, rules.PROF_EXCALL_FINISH:
		return false
	}
	return cfg.Parallel
}

// checkPartition translates every block of exe's code section in address
// order and checks the run/site split: the blocks tile the section, a
// block's sites are strictly ascending indices inside it, and an
// instruction is a site exactly when a rule at its address survives the
// configuration — so no run contains a surviving rule. It returns the
// number of sites seen.
func checkPartition(t *testing.T, what string, exe *obj.Executable, libs []*obj.Library, sched *rules.Schedule, cfg dbm.Config) int {
	t.Helper()
	ex, err := dbm.New(exe, sched, cfg, libs...)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sites := 0
	for addr := exe.CodeBase; addr < exe.CodeEnd(); {
		sh, err := ex.ShapeAt(1, addr)
		if err != nil {
			t.Fatalf("%s: block at %#x: %v", what, addr, err)
		}
		if sh.Len < 1 || sh.End != addr+uint64(sh.Len)*guest.InstSize {
			t.Fatalf("%s: block at %#x: %d instructions end at %#x", what, addr, sh.Len, sh.End)
		}
		isSite := make([]bool, sh.Len)
		for k, idx := range sh.Sites {
			if idx < 0 || idx >= sh.Len || k > 0 && idx <= sh.Sites[k-1] {
				t.Fatalf("%s: block at %#x (%d instructions): site indices %v not strictly ascending inside it", what, addr, sh.Len, sh.Sites)
			}
			isSite[idx] = true
		}
		for i := range isSite {
			a := addr + uint64(i)*guest.InstSize
			want := false
			for _, r := range ex.Ix.At(a) {
				want = want || survives(r, cfg)
			}
			if isSite[i] != want {
				t.Fatalf("%s: %#x (instruction %d of block %#x): site %v, surviving rule %v (rules %v)", what, a, i, addr, isSite[i], want, ex.Ix.At(a))
			}
		}
		sites += len(sh.Sites)
		addr = sh.End
	}
	return sites
}

// TestTranslatePartition checks the run/site split over the suite's
// reference binaries and a slice of the generated-kernel corpus, under
// the parallelising, profiling and bare configurations (the bare one
// keeps the parallel schedule's rules in the index and filters them all,
// so every block must come out as a single run).
func TestTranslatePartition(t *testing.T) {
	profile := dbm.Config{Threads: 1, Profile: true, Cost: dbm.DefaultCost()}
	bare := dbm.Config{Threads: 1, Cost: dbm.DefaultCost()}
	check := func(what string, exe *obj.Executable, libs []*obj.Library) {
		prog, err := analyzer.Analyze(exe)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		prog.SelectLoops(analyzer.SelectOptions{UseChecks: true})
		par, err := prog.GenParallelSchedule()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		prof := prog.GenProfileSchedule()
		for _, r := range prof.Rules {
			if r.ID == rules.PROF_EXCALL_START || r.ID == rules.PROF_EXCALL_FINISH {
				t.Fatalf("%s: profile schedule carries %v at %#x, which nothing reads", what, r.ID, r.Addr)
			}
		}
		if len(par.Rules) > 0 && checkPartition(t, what+"/parallel", exe, libs, par, dbm.DefaultConfig(4)) == 0 {
			t.Errorf("%s/parallel: %d rules made no site", what, len(par.Rules))
		}
		if len(prof.Rules) > 0 && checkPartition(t, what+"/profile", exe, libs, prof, profile) == 0 {
			t.Errorf("%s/profile: %d rules made no site", what, len(prof.Rules))
		}
		if n := checkPartition(t, what+"/bare", exe, libs, par, bare); n != 0 {
			t.Errorf("%s/bare: %d sites with every rule filtered out", what, n)
		}
	}
	for _, name := range workloads.Names() {
		exe, libs, err := workloads.Build(name, workloads.Ref, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		check(name, exe, libs)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		k, err := genkern.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("genkern seed %d", seed), k.Ref, k.Libs)
	}
}

package genkern

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// corpusSeeds is the tier-1 seeded corpus size. Acceptance: >= 200
// kernels pass the full oracle lattice deterministically.
const corpusSeeds = 200

// -genkern.seed replays a single seed (printed by every failure's
// repro command) instead of the whole corpus.
var seedFlag = flag.Int64("genkern.seed", -1, "run the differential oracle for one generator seed only")

// TestSeededCorpus runs the full differential oracle — analyzer
// verdict vs. profiler observation vs. three-engine execution — over
// the fixed seeded corpus. Every failure message ends in a one-line
// repro command naming the seed.
func TestSeededCorpus(t *testing.T) {
	if *seedFlag >= 0 {
		seed := uint64(*seedFlag)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rep, err := DiffSeed(seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, lv := range rep.Loops {
				t.Logf("loop %d %-13s class=%v profiled=%v observed=%v selected=%v cov=%.3f",
					lv.ID, lv.Truth.Kind, lv.Class, lv.DepProfiled, lv.ObservedDep, lv.Selected, lv.Coverage)
			}
			t.Logf("selected=%d missed=%d", rep.Selected, rep.MissedPar)
		})
		return
	}
	for seed := uint64(1); seed <= uint64(corpusSeeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			if _, err := DiffSeed(seed, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSeededCorpusCoversShapes asserts the fixed corpus actually
// sweeps the dependence-shape space: every segment kind occurs, and
// the pipeline exercises both speculation-confirming and
// speculation-refuting outcomes.
func TestSeededCorpusCoversShapes(t *testing.T) {
	kinds := map[SegKind]int{}
	var selected, observedDeps, checked int
	for seed := uint64(1); seed <= uint64(corpusSeeds); seed++ {
		sh := DeriveShape(seed)
		for _, s := range sh.Segs {
			kinds[s.Kind]++
		}
	}
	for k := SegKind(0); int(k) < numSegKinds; k++ {
		if kinds[k] == 0 {
			t.Errorf("segment kind %v never generated in %d seeds", k, corpusSeeds)
		}
	}
	// A small sampled pass over real runs: the corpus must include
	// selected-parallel kernels, profiler-observed dependences, and
	// check-guarded loops.
	for seed := uint64(1); seed <= 24; seed++ {
		rep, err := DiffSeed(seed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		selected += rep.Selected
		for _, lv := range rep.Loops {
			if lv.DepProfiled && lv.ObservedDep {
				observedDeps++
			}
			if lv.Selected && lv.Truth.Ambiguous {
				checked++
			}
		}
	}
	if selected == 0 {
		t.Error("no generated loop was ever selected for parallelisation")
	}
	if observedDeps == 0 {
		t.Error("the dependence profiler never observed a planted dependence")
	}
	if checked == 0 {
		t.Error("no statically-ambiguous loop was ever selected (checks/speculation path unexercised)")
	}
}

// TestPlantedSoundnessBug forces the analyser to mis-classify a
// generated carried loop as static-DOALL and asserts the differential
// harness catches the divergence with a printable repro seed. This is
// the self-test of the oracle: if it ever passes silently, the harness
// has a blind spot.
func TestPlantedSoundnessBug(t *testing.T) {
	planted := 0
	for seed := uint64(1); seed <= 64 && planted < 3; seed++ {
		k, err := Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		hasCarried := false
		for _, tr := range k.Truth {
			if tr.Kind == KindCarried {
				hasCarried = true
			}
		}
		if !hasCarried {
			continue
		}
		rep, err := RunDiff(k, Options{PlantDOALL: true})
		if err == nil {
			t.Fatalf("seed %d: planted mis-classification escaped the differential oracle", seed)
		}
		msg := err.Error()
		if !strings.Contains(msg, "PLANTED BUG CAUGHT") {
			t.Fatalf("seed %d: planted bug failed for the wrong reason: %v", seed, err)
		}
		if !strings.Contains(msg, fmt.Sprintf("-genkern.seed=%d", seed)) {
			t.Fatalf("seed %d: failure does not carry a repro command: %v", seed, err)
		}
		if rep == nil || rep.Planted == nil || !rep.Planted.Selected {
			t.Fatalf("seed %d: planted loop not recorded as selected", seed)
		}
		planted++
	}
	if planted == 0 {
		t.Fatal("no seed in 1..64 generated a statically-proven carried loop to plant on")
	}
}

// TestDiffDeterministicAcrossGOMAXPROCS pins the determinism contract
// for generated kernels: the oracle's engine timelines and data hashes
// are identical at GOMAXPROCS 1 and N.
func TestDiffDeterministicAcrossGOMAXPROCS(t *testing.T) {
	seeds := []uint64{3, 7, 11}
	type obs struct {
		cycles   []int64
		dataHash []uint64
	}
	measure := func() []obs {
		var out []obs
		for _, seed := range seeds {
			rep, err := DiffSeed(seed, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var o obs
			for _, e := range rep.Engines {
				o.cycles = append(o.cycles, e.Cycles)
				o.dataHash = append(o.dataHash, e.DataHash)
			}
			out = append(out, o)
		}
		return out
	}
	base := measure()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	single := measure()
	for i := range base {
		for j := range base[i].cycles {
			if base[i].cycles[j] != single[i].cycles[j] {
				t.Errorf("seed %d engine %d: %d cycles at GOMAXPROCS=%d, %d at 1",
					seeds[i], j, base[i].cycles[j], prev, single[i].cycles[j])
			}
			if base[i].dataHash[j] != single[i].dataHash[j] {
				t.Errorf("seed %d engine %d: data hash differs across GOMAXPROCS", seeds[i], j)
			}
		}
	}
}

// TestRecoveryPathOnGeneratedKernels runs a few kernels with the PR 4
// recovery path armed (scan-defeat injection): outputs must still be
// byte-identical to native, and any host-parallel region must have
// recovered through rollback + round-robin re-execution.
func TestRecoveryPathOnGeneratedKernels(t *testing.T) {
	recovered := false
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		rep, err := DiffSeed(seed, Options{Recovery: true})
		if err != nil {
			t.Fatal(err)
		}
		last := rep.Engines[len(rep.Engines)-1]
		if last.Name != "work-stealing+inject" {
			t.Fatalf("seed %d: injected engine run missing", seed)
		}
		if last.Stats.ParRecoveries > 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Error("scan-defeat injection never exercised the recovery path on any sampled kernel")
	}
}

// FuzzGenKernel feeds arbitrary seeds (the generator's whole input
// space) through the full differential oracle. Any crash or lattice
// violation is a real bug in the generator or the pipeline.
func FuzzGenKernel(f *testing.F) {
	for seed := uint64(1); seed <= 16; seed++ {
		f.Add(seed)
	}
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64) {
		if _, err := DiffSeed(seed, Options{Threads: 4}); err != nil {
			t.Fatal(err)
		}
	})
}

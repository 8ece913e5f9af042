package compilers

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"janus"
	"janus/internal/artcache"
	"janus/internal/vm"
	"janus/internal/workloads"
)

func TestGccConservativeOnLibraryCalls(t *testing.T) {
	// bwaves' hot loop calls pow: gcc-like parallelisation must skip it.
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallelise(GCC, exe, 8, Engine{HostParallel: true, WorkStealing: true}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Fatal("no speedup computed")
	}
	icc, err := Parallelise(ICC, exe, 8, Engine{HostParallel: true, WorkStealing: true}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	// icc admits checked loops, so it parallelises at least as many.
	if icc.LoopsParallelised < res.LoopsParallelised {
		t.Fatalf("icc (%d loops) should cover >= gcc (%d)", icc.LoopsParallelised, res.LoopsParallelised)
	}
}

func TestCompilersBeatNothingOnStaticDOALL(t *testing.T) {
	exe, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parallelise(GCC, exe, 8, Engine{HostParallel: true, WorkStealing: true}, libs...)
	if err != nil {
		t.Fatal(err)
	}
	// libquantum is dominated by constant-base static DOALL loops: even
	// a conservative compiler parallelises it well.
	if res.Speedup < 3 {
		t.Fatalf("gcc on libquantum: %.2fx", res.Speedup)
	}
	if res.LoopsParallelised == 0 {
		t.Fatal("no loops parallelised")
	}
}

func TestKindStrings(t *testing.T) {
	if GCC.String() != "gcc" || ICC.String() != "icc" {
		t.Fatal("kind names")
	}
}

// artifacts counts the store's entries per kind directory.
func artifacts(t *testing.T, dir string) map[string]int {
	t.Helper()
	counts := map[string]int{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".art" {
			counts[filepath.Base(filepath.Dir(path))]++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// TestParalleliseCachedReplays: the uncached entry point, a cold store
// and a warm store give the same Result for both models; the cold call
// stores one baseline per binary and one plan and one run per model,
// and the warm call — in a fresh session, as in a new process — replays
// all three without analysing, simulating or publishing anything.
func TestParalleliseCachedReplays(t *testing.T) {
	eng := Engine{HostParallel: true, WorkStealing: true}
	// Two benchmarks on which the models select different loops: where
	// the selections coincide (462.libquantum) the schedules hash equal
	// and both models are one stored run.
	for _, bench := range []string{"410.bwaves", "459.GemsFDTD"} {
		exe, libs, err := workloads.Build(bench, workloads.Train, workloads.O3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := artcache.Open(t.TempDir(), artcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[Kind]Result{}
		for _, kind := range []Kind{GCC, ICC} {
			res, err := Parallelise(kind, exe, 8, eng, libs...)
			if err != nil {
				t.Fatal(err)
			}
			want[kind] = *res
		}
		for _, pass := range []string{"cold", "warm"} {
			s := janus.NewSession(nil)
			before, stored := c.Stats(), artifacts(t, c.Dir())
			for _, kind := range []Kind{GCC, ICC} {
				res, err := ParalleliseBinary(s, c, kind, s.BinaryOf(exe, libs...), 8, eng)
				if err != nil {
					t.Fatal(err)
				}
				if *res != want[kind] {
					t.Errorf("%s, %s, %s store: %+v, uncached %+v", bench, kind, pass, *res, want[kind])
				}
			}
			after, now := c.Stats(), artifacts(t, c.Dir())
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if pass == "cold" {
				// One baseline shared by both models, one plan and one run each.
				if hits != 0 || misses != 5 || now["native-v1"] != 1 || now["schedule-v1"] != 2 || now["dbm-v3"] != 2 || len(now) != 3 {
					t.Errorf("%s, cold store: %d hits, %d misses, entries %v", bench, hits, misses, now)
				}
				continue
			}
			if hits != 5 || misses != 0 || after.BadEntries != 0 {
				t.Errorf("%s, warm store: %d hits, %d misses, %d bad entries — want a pure replay", bench, hits, misses, after.BadEntries)
			}
			if !reflect.DeepEqual(now, stored) {
				t.Errorf("%s: warm call published: entries %v, were %v", bench, now, stored)
			}
		}

		// The engine selection is part of the run's key: a round-robin
		// render must not replay a host-parallel run's stored Stats.
		s := janus.NewSession(nil)
		before := c.Stats()
		res, err := ParalleliseBinary(s, c, GCC, s.BinaryOf(exe, libs...), 8, Engine{})
		if err != nil {
			t.Fatal(err)
		}
		after := c.Stats()
		if *res != want[GCC] {
			t.Errorf("%s: round-robin engine gave %+v, default engine %+v", bench, *res, want[GCC])
		}
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 2 || misses != 1 {
			t.Errorf("%s, round-robin engine on the default engine's store: %d hits, %d misses — want plan and baseline replayed and the run simulated", bench, hits, misses)
		}
		if n := artifacts(t, c.Dir())["dbm-v3"]; n != 3 {
			t.Errorf("%s: %d dbm-v3 entries after a second engine, want 3", bench, n)
		}
	}
}

// TestModelRunIsVerified: a modelled compiler's simulated run is held
// to native execution like a Janus run. A stored run whose memory image
// differs from native must fail the model, naming kind and benchmark.
func TestModelRunIsVerified(t *testing.T) {
	exe, libs, err := workloads.Build("462.libquantum", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{HostParallel: true, WorkStealing: true}
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The foreign baseline planted below lives and dies with a session
	// of the test's own.
	if _, err := ParalleliseBinary(janus.NewSession(nil), c, GCC, janus.BinaryOf(exe, libs...), 8, eng); err != nil {
		t.Fatal(err)
	}
	// Swap in the baseline of another program under this binary's key:
	// a valid entry, so only the comparison can notice.
	other, otherLibs, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := janus.RunNativeBaseline(other, otherLibs...)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := vm.EncodeResult(foreign)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(c.Dir(), "native-v1", "*.art"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("native-v1 entries: %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], reseal(t, entries[0], payload), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ParalleliseBinary(janus.NewSession(nil), c, GCC, janus.BinaryOf(exe, libs...), 8, eng)
	if err == nil {
		t.Fatal("a run that differs from its native baseline passed the model")
	}
	for _, part := range []string{"gcc", "462.libquantum", "verification failed"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %q", err, part)
		}
	}
}

// reseal rewrites the entry at path to carry payload, keeping its key
// digest (artcache entry format: magic, key digest, payload length,
// payload SHA-256, payload).
func reseal(t *testing.T, path string, payload []byte) []byte {
	t.Helper()
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, entry[:40]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

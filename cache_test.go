package janus

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// rewriteArtifacts applies f to every artifact file under dir.
func rewriteArtifacts(t *testing.T, dir string, f func([]byte) []byte) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".art" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		return os.WriteFile(path, f(data), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no artifacts found to rewrite")
	}
}

// flipBit corrupts an entry's payload so verification rejects it.
func flipBit(entry []byte) []byte {
	entry[len(entry)-1] ^= 0xFF
	return entry
}

// staleLayout replaces an entry's payload with bytes no codec accepts
// while keeping the entry valid (artcache entry format: magic, key
// digest, payload length, payload SHA-256, payload), the way a payload
// written under an older layout of the same kind would look.
func staleLayout(entry []byte) []byte {
	return staleLayoutWith(entry, []byte("stale layout"))
}

// staleLayoutWith reseals an entry around payload, keeping its key.
func staleLayoutWith(entry, payload []byte) []byte {
	out := append([]byte{}, entry[:40]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// TestTierInstances drives each of the six cached stages through its
// production entry point, in a session of its own that each reset
// replaces, and asserts what its artcache.Tier instance promises. A
// computation is observable from outside as a cache miss (or, for a
// verified but undecodable payload, a hit that yields a fresh result)
// and on the tier's own counter, a memory hit as the identical pointer
// with the store untouched and nothing computed.
// Every stage has a memory tier: the plan and the DBM run are keyed in
// memory by what their disk keys name, so a repeat never reaches the
// store.
func TestTierInstances(t *testing.T) {
	const bench = "462.libquantum"
	exe, libs, err := workloads.Build(bench, workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	planBin := BinaryOf(exe, libs...)
	var s *Session
	reset := func() { s = NewSession(workloads.NewMemo()) }
	// encoded views a result through its production codec, so equality
	// is equality of everything a cache replay must preserve.
	encoded := func(data []byte, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, in := range []struct {
		name   string
		disk   bool
		lookup func(c *artcache.Cache) (any, error)
		stats  func() artcache.TierStats
		view   func(any) any
	}{
		{"build", false,
			func(*artcache.Cache) (any, error) {
				e, _, err := s.memo().Build(bench, workloads.Train, workloads.O3)
				return e, err
			},
			func() artcache.TierStats { return s.TierStats()["build"] },
			func(v any) any { return v.(*obj.Executable).Fingerprint() }},
		{"native", true,
			func(c *artcache.Cache) (any, error) { return s.runNativeBaseline(c, s.BinaryOf(exe, libs...)) },
			func() artcache.TierStats { return s.native.Stats() },
			func(v any) any { return encoded(vm.EncodeResult(v.(*vm.Result))) }},
		{"profile", true,
			func(c *artcache.Cache) (any, error) { return s.runProfiling(c, s.BinaryOf(exe, libs...), prog) },
			func() artcache.TierStats { return s.profile.Stats() },
			func(v any) any { return encoded(encodeProfile(v.(*ProfileResult))) }},
		{"analysis", false,
			func(*artcache.Cache) (any, error) { return s.runAnalyzeMemo(s.BinaryOf(exe, libs...)) },
			func() artcache.TierStats { return s.analyze.Stats() },
			func(v any) any { return fmt.Sprint(v.(*analyzer.Program).ClassCounts()) }},
		{"plan", true,
			// Untrained, so the plan is the only stage looked up. The
			// handle is held across resets: a fresh one would be another
			// memory key, which is not what the repeat step is about.
			func(c *artcache.Cache) (any, error) { return s.PlanCached(c, planBin, nil, Config{}.Selection()) },
			func() artcache.TierStats { return s.plans.Stats() },
			func(v any) any { return encoded(encodePlan(v.(*Plan))) }},
		{"dbm", true,
			func(c *artcache.Cache) (any, error) { return s.RunBareDBMBinary(c, planBin) },
			func() artcache.TierStats { return s.runs.Stats() },
			func(v any) any { return encoded(dbm.EncodeResult(v.(*dbm.Result))) }},
	} {
		t.Run(in.name, func(t *testing.T) {
			c, err := artcache.Open(t.TempDir(), artcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// step runs one lookup and reports its result with what it
			// did to the store.
			// computed is how many computations the last step ran, by
			// the tier's own counter; memHits likewise.
			var computed, memHits int64
			step := func(what string) (any, artcache.Stats) {
				t.Helper()
				before, tb := c.Stats(), in.stats()
				v, err := in.lookup(c)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after, ta := c.Stats(), in.stats()
				computed, memHits = ta.Computed-tb.Computed, ta.MemHits-tb.MemHits
				return v, artcache.Stats{
					Hits:       after.Hits - before.Hits,
					Misses:     after.Misses - before.Misses,
					BadEntries: after.BadEntries - before.BadEntries,
				}
			}
			counted := func(what string, wantComputed, wantMemHits int64) {
				t.Helper()
				if computed != wantComputed || memHits != wantMemHits {
					t.Fatalf("%s: tier counted %d computations and %d memory hits, want %d and %d", what, computed, memHits, wantComputed, wantMemHits)
				}
			}
			expect := func(what string, got, want artcache.Stats) {
				t.Helper()
				if got.String() != want.String() {
					t.Fatalf("%s: store saw {%s}, want {%s}", what, got, want)
				}
			}
			var none, hit, miss, bad artcache.Stats
			if in.disk {
				hit, miss, bad = artcache.Stats{Hits: 1}, artcache.Stats{Misses: 1}, artcache.Stats{Misses: 1, BadEntries: 1}
			}

			reset()
			first, d := step("cold")
			expect("cold lookup computes", d, miss)
			counted("cold lookup", 1, 0)
			want := in.view(first)

			again, d := step("repeat")
			expect("memory hit computes 0x", d, none)
			counted("memory hit", 0, 1)
			if again != first {
				t.Fatal("memory hit returned a different pointer: the stage ran again")
			}

			reset()
			replayed, d := step("in a fresh session")
			expect("disk hit computes 0x", d, hit)
			if in.disk {
				counted("disk hit", 0, 0)
			}
			if replayed == first {
				t.Fatal("a fresh session kept the memory entry")
			}
			if got := in.view(replayed); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed result differs from the computed one:\n got %v\nwant %v", got, want)
			}
			if !in.disk {
				return // memory-only: the disk cases do not apply
			}

			rewriteArtifacts(t, c.Dir(), flipBit)
			reset()
			healed, d := step("bit-flipped entry")
			expect("bit-flipped entry recomputes", d, bad)
			if got := in.view(healed); !reflect.DeepEqual(got, want) {
				t.Fatal("recomputed result differs after corruption")
			}
			reset()
			_, d = step("healed entry")
			expect("recompute healed the store", d, hit)

			rewriteArtifacts(t, c.Dir(), staleLayout)
			reset()
			fresh, d := step("stale-layout entry")
			expect("verified but undecodable payload reads as a hit", d, hit)
			if got := in.view(fresh); !reflect.DeepEqual(got, want) {
				t.Fatal("recomputed result differs after a stale-layout payload")
			}
			rewriteArtifacts(t, c.Dir(), func(entry []byte) []byte {
				if string(entry[80:]) == "stale layout" {
					t.Error("undecodable payload was not overwritten")
				}
				return entry
			})

			c, err = artcache.Open(t.TempDir(), artcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			reset()
			before := in.stats()
			results := make([]any, 8)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err := in.lookup(c)
					if err != nil {
						t.Error(err)
					}
					results[i] = v
				}()
			}
			wg.Wait()
			expect("concurrent callers share one compute", c.Stats(), miss)
			if ts := in.stats(); ts.Computed-before.Computed != 1 || ts.MemHits-before.MemHits != 7 {
				t.Fatalf("8 concurrent callers: tier counted %+v, was %+v; want 1 computation and 7 memory hits", ts, before)
			}
			for i, v := range results {
				if v != results[0] {
					t.Fatalf("caller %d got its own result", i)
				}
			}
		})
	}
}

// TestInjectedAndProfilingRunsBypassBothTiers: a fault-injected run and
// a profiling run execute every time they are asked for — their
// counters must come from a real execution, and neither an injection
// plan nor the profiling switch is part of any key — so the DBM tier
// counts one computation per call, answers none from memory, and its
// kind is never looked up in, or published to, the store.
func TestInjectedAndProfilingRunsBypassBothTiers(t *testing.T) {
	// The schedule lookup counted below must reach this store, not a
	// plan an earlier test memoised.
	s := NewSession(nil)
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	bin := s.BinaryOf(exe, libs...)
	executes := func(what string, run func() error) {
		t.Helper()
		for i := 0; i < 2; i++ {
			before := s.runs.Stats()
			if err := run(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			after := s.runs.Stats()
			if after.Computed != before.Computed+1 || after.MemHits != before.MemHits {
				t.Fatalf("%s, call %d: tier counted %+v, was %+v; want one computation and no memory hit", what, i, after, before)
			}
		}
	}

	inject, err := faultinject.ParsePlan("scan-defeat")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanCached(c, bin, nil, Config{UseProfile: true, UseChecks: true}.Selection())
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dbm.DefaultConfig(4)
	dcfg.Inject = inject
	executes("injected run", func() error {
		native, res, err := s.RunPlanBinary(c, bin, plan, dcfg)
		if err != nil {
			return err
		}
		return Verify(native, res)
	})

	prog, err := analyzer.Analyze(exe)
	if err != nil {
		t.Fatal(err)
	}
	sched := prog.GenProfileSchedule()
	img, err := sched.Save()
	if err != nil {
		t.Fatal(err)
	}
	executes("profiling run", func() error {
		_, err := s.runDBM(c, bin, sched, scheduleDigest(img), dbm.Config{Threads: 1, Profile: true, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps})
		return err
	})

	// The plan, baseline and profile beneath the injected run are cached
	// as ever; the runs themselves left no trace.
	st := c.Stats()
	if _, looked := st.Kinds["dbm-v3"]; looked || st.Kinds["schedule-v1"].Misses != 1 {
		t.Fatalf("store saw %s", st.KindsString())
	}
	if stored, _ := filepath.Glob(filepath.Join(c.Dir(), "dbm-v3", "*.art")); len(stored) != 0 {
		t.Fatalf("%d bypassing runs were stored", len(stored))
	}
}

// TestSharedPlansAndResultsStayImmutable: memoised plans, schedules and
// results are handed to every caller that asks, concurrently, and are
// never copied — so nothing downstream may write to one. Eight
// concurrent runs at two thread counts share one plan (whose schedule
// four DBMs index at once), one baseline and, per thread count, one
// result; each report must equal what a process with empty memos
// computes. The race detector sees any write.
func TestSharedPlansAndResultsStayImmutable(t *testing.T) {
	ref, libs, err := workloads.Build("470.lbm", workloads.Ref, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	trainExe, _, err := workloads.Build("470.lbm", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	bin, train := BinaryOf(ref, libs...), BinaryOf(trainExe, libs...)
	s := NewSession(nil)
	run := func(threads int) (*Report, error) {
		return ParalleliseBinary(bin, train, Config{Threads: threads, UseProfile: true, UseChecks: true, Verify: true, Session: s})
	}
	threadsOf := func(i int) int { return 4 + 4*(i%2) }

	reports := make([]*Report, 8)
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := run(threadsOf(i))
			if err != nil {
				t.Error(err)
				return
			}
			// What readers do with a report.
			if _, err := rep.Schedule.Save(); err != nil {
				t.Error(err)
			}
			_ = rules.BuildIndex(rep.Schedule)
			_ = rep.Speedup()
			reports[i] = rep
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if d := s.plans.Stats(); d.Computed != 1 || d.MemHits != 7 {
		t.Fatalf("eight runs did not share one plan: tier counted %+v", d)
	}
	for i, rep := range reports {
		if rep.Schedule != reports[0].Schedule || rep.Native != reports[0].Native || rep.DBM != reports[i%2].DBM {
			t.Fatalf("run %d was handed its own plan, baseline or result", i)
		}
	}
	for i := 0; i < 2; i++ {
		s = NewSession(nil)
		fresh, err := run(threadsOf(i))
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < len(reports); j += 2 {
			if fresh.DBM == reports[j].DBM || !reflect.DeepEqual(reports[j], fresh) {
				t.Fatalf("%d threads: shared report %d differs from a fresh computation:\n got %+v\nwant %+v", threadsOf(i), j, reports[j], fresh)
			}
		}
	}
}

// TestLibsKeyOf pins the overflow contract of the memo key: up to four
// libraries fold into a comparable key, more must report !ok so the
// callers fall back to an uncached run instead of aliasing keys.
func TestLibsKeyOf(t *testing.T) {
	mk := func(n int) []*obj.Library {
		libs := make([]*obj.Library, n)
		for i := range libs {
			libs[i] = &obj.Library{Name: "l"}
		}
		return libs
	}
	for n := 0; n <= 5; n++ {
		k, ok := libsKeyOf(mk(n))
		if wantOK := n <= 4; ok != wantOK {
			t.Fatalf("libsKeyOf(%d libs) ok = %v, want %v", n, ok, wantOK)
		}
		if !ok {
			continue
		}
		// The key must carry exactly the first n pointers, zero-padded.
		for i := 0; i < len(k); i++ {
			if (i < n) != (k[i] != nil) {
				t.Fatalf("libsKeyOf(%d libs) slot %d = %v", n, i, k[i])
			}
		}
	}
	// Distinct library sets of equal length must produce distinct keys.
	a, _ := libsKeyOf(mk(2))
	b, _ := libsKeyOf(mk(2))
	if a == b {
		t.Fatal("two distinct pointer sets folded to the same key")
	}
}

// TestNativeMemoOverflowBypassesCache proves the >4-libraries fallback
// really is uncached: two calls with five libraries execute natively
// twice (distinct result pointers), while the same program with one
// library is memoised (same pointer).
func TestNativeMemoOverflowBypassesCache(t *testing.T) {
	exe, libs, err := workloads.Build("410.bwaves", workloads.Train, workloads.O3)
	if err != nil {
		t.Fatal(err)
	}
	if len(libs) != 1 {
		t.Fatalf("expected one math library, got %d", len(libs))
	}
	r1, err := RunNativeBaselineCached(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunNativeBaselineCached(nil, exe, libs...)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("<=4 libs: second run was not served from the memo")
	}

	// Pad to five: four extra unused (never-called) libraries mapped at
	// distinct bases. The VM only needs them resolvable, not called.
	many := append([]*obj.Library{}, libs...)
	base := uint64(0x7f10_0000_0000)
	for i := 0; i < 4; i++ {
		many = append(many, &obj.Library{Name: "pad", Base: base, Code: make([]byte, 24)})
		base += 0x1_0000_0000
	}
	o1, err := RunNativeBaselineCached(nil, exe, many...)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := RunNativeBaselineCached(nil, exe, many...)
	if err != nil {
		t.Fatal(err)
	}
	if o1 == o2 {
		t.Fatal(">4 libs: runs shared a result pointer, expected the uncached path")
	}
	if o1.Cycles != r1.Cycles || o1.DataHash != r1.DataHash {
		t.Fatalf("unused pad libraries changed the result: %+v vs %+v", o1, r1)
	}
}

// TestMemoEvictionKeepsInFlight fills a native-shaped tier to memoLimit
// while one computation is blocked in flight, forces eviction past the
// limit, and verifies the in-flight entry still deduplicates joiners
// (the run-exactly-once guarantee survives eviction pressure).
func TestMemoEvictionKeepsInFlight(t *testing.T) {
	// A private memory tier with the production limit: the package-level
	// tiers are shared with other tests, so pressure is applied to an
	// identically-bounded instance.
	f := artcache.Tier[runKey, *vm.Result]{Limit: memoLimit}
	dummy := func(i int) runKey { return runKey{exe: &obj.Executable{Entry: uint64(i)}} }

	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	inflight := dummy(-1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Do(nil, inflight, nil, func() (*vm.Result, error) {
			runs.Add(1)
			close(started)
			<-release
			return &vm.Result{Exit: 7}, nil
		})
	}()
	<-started

	// Flood past the limit: every completed entry becomes evictable,
	// and eviction triggers each time the table is full.
	for i := 0; i < 3*memoLimit; i++ {
		if _, err := f.Do(nil, dummy(i), nil, func() (*vm.Result, error) { return &vm.Result{}, nil }); err != nil {
			t.Fatal(err)
		}
	}

	// The blocked computation must still be joinable, not restarted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := f.Do(nil, inflight, nil, func() (*vm.Result, error) {
			runs.Add(1)
			return &vm.Result{Exit: -1}, nil
		})
		if err != nil || res.Exit != 7 {
			t.Errorf("joiner got %+v, %v; want the in-flight result", res, err)
		}
	}()
	close(release)
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("in-flight computation ran %d times under eviction pressure, want 1", got)
	}
}

// TestDBMConfigKeySpelling pins the disk key's configuration spelling:
// every stored dbm entry is found by the bytes the format string below
// produces, whether dbmConfigKey formats the key or finds it memoised.
func TestDBMConfigKeySpelling(t *testing.T) {
	const want = "threads=8 parallel=true hostpar=true steal=true miniter=4 maxsteps=2000000000 " +
		"cost={TransPerInst:60 Dispatch:1 LoopInitBase:4000 LoopInitPerThread:900 LoopFinishBase:2000 " +
		"LoopFinishPerThread:400 CheckPerRange:60 TxStart:60 TxPerAccess:6 TxValidatePerWord:12 TxCommitPerWord:8}"
	if got := dbmConfigKey(dbm.DefaultConfig(8)); got != want {
		t.Fatalf("dbmConfigKey(DefaultConfig(8)) =\n%q\nwant\n%q", got, want)
	}
	odd := dbm.DefaultConfig(3)
	odd.Parallel, odd.WorkStealing = false, false
	odd.MinIterPerThread, odd.MaxSteps = -1, 0
	odd.Cost.Dispatch, odd.Cost.TxCommitPerWord = -5, 1<<40
	for _, c := range []dbm.Config{{}, odd, {Threads: 1, Cost: dbm.DefaultCost(), MaxSteps: vm.DefaultMaxSteps}} {
		want := fmt.Sprintf("threads=%d parallel=%t hostpar=%t steal=%t miniter=%d maxsteps=%d cost=%+v",
			c.Threads, c.Parallel, c.HostParallel, c.WorkStealing, c.MinIterPerThread, c.MaxSteps, c.Cost)
		for range 2 { // the second spelling is the memoised one
			if got := dbmConfigKey(c); got != want {
				t.Fatalf("dbmConfigKey(%+v) =\n%q\nwant\n%q", c, got, want)
			}
		}
	}
}

package janus

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/obj"
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
// production entry point and asserts what its artcache.Tier instance
// promises. A computation is observable from outside as a cache miss
// (or, for a verified but undecodable payload, a hit that yields a
// fresh result), a memory hit as the identical pointer with the store
// untouched.
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
	// encoded views a result through its production codec, so equality
	// is equality of everything a cache replay must preserve.
	encoded := func(data []byte, err error) any {
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, in := range []struct {
		name      string
		mem, disk bool
		lookup    func(c *artcache.Cache) (any, error)
		reset     func()
		view      func(any) any
	}{
		{"build", true, true,
			func(c *artcache.Cache) (any, error) {
				e, _, err := workloads.BuildCached(c, bench, workloads.Train, workloads.O3)
				return e, err
			},
			workloads.ResetBuildCache,
			func(v any) any { return string(v.(*obj.Executable).Save()) }},
		{"native", true, true,
			func(c *artcache.Cache) (any, error) { return RunNativeBaselineCached(c, exe, libs...) },
			ResetMemos,
			func(v any) any { return encoded(vm.EncodeResult(v.(*vm.Result))) }},
		{"profile", true, true,
			func(c *artcache.Cache) (any, error) { return RunProfilingCached(c, exe, prog, libs...) },
			ResetMemos,
			func(v any) any { return encoded(encodeProfile(v.(*ProfileResult))) }},
		{"analysis", true, false,
			func(*artcache.Cache) (any, error) { return runAnalyzeMemo(BinaryOf(exe, libs...)) },
			ResetMemos,
			func(v any) any { return fmt.Sprint(v.(*analyzer.Program).ClassCounts()) }},
		{"plan", false, true,
			// Untrained, so the plan is the only stage looked up.
			func(c *artcache.Cache) (any, error) {
				return PlanCached(c, BinaryOf(exe, libs...), nil, Config{}.Selection())
			},
			func() {},
			func(v any) any { return encoded(encodePlan(v.(*Plan))) }},
		{"dbm", false, true,
			func(c *artcache.Cache) (any, error) { return RunBareDBMCached(c, exe, libs...) },
			func() {},
			func(v any) any { return encoded(dbm.EncodeResult(v.(*dbm.Result))) }},
	} {
		t.Run(in.name, func(t *testing.T) {
			c, err := artcache.Open(t.TempDir(), artcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// step runs one lookup and reports its result with what it
			// did to the store.
			step := func(what string) (any, artcache.Stats) {
				t.Helper()
				before := c.Stats()
				v, err := in.lookup(c)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after := c.Stats()
				return v, artcache.Stats{
					Hits:       after.Hits - before.Hits,
					Misses:     after.Misses - before.Misses,
					BadEntries: after.BadEntries - before.BadEntries,
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

			in.reset() // other tests may hold this key in memory
			first, d := step("cold")
			expect("cold lookup computes", d, miss)
			want := in.view(first)

			again, d := step("repeat")
			if in.mem {
				expect("memory hit computes 0x", d, none)
				if again != first {
					t.Fatal("memory hit returned a different pointer: the stage ran again")
				}
			} else {
				expect("disk-only stage replays from disk", d, hit)
			}

			in.reset()
			replayed, d := step("after Reset")
			expect("disk hit computes 0x", d, hit)
			if replayed == first {
				t.Fatal("Reset kept the memory entry")
			}
			if got := in.view(replayed); !reflect.DeepEqual(got, want) {
				t.Fatalf("replayed result differs from the computed one:\n got %v\nwant %v", got, want)
			}
			if !in.disk {
				return // memory-only: the disk cases do not apply
			}

			rewriteArtifacts(t, c.Dir(), flipBit)
			in.reset()
			healed, d := step("bit-flipped entry")
			expect("bit-flipped entry recomputes", d, bad)
			if got := in.view(healed); !reflect.DeepEqual(got, want) {
				t.Fatal("recomputed result differs after corruption")
			}
			in.reset()
			_, d = step("healed entry")
			expect("recompute healed the store", d, hit)

			rewriteArtifacts(t, c.Dir(), staleLayout)
			in.reset()
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

			if !in.mem {
				return // no memory tier: concurrent callers are not promised to share
			}
			c, err = artcache.Open(t.TempDir(), artcache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in.reset()
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
			for i, v := range results {
				if v != results[0] {
					t.Fatalf("caller %d got its own result", i)
				}
			}
		})
	}
}

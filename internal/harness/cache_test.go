package harness

// Cold/warm/off equivalence for the durable artifact cache: the suite
// rendered with the cache disabled, with an empty cache (cold), and
// against the populated cache (warm) must be byte-identical to the
// committed golden fixture, and the warm render must actually replay
// from disk (nonzero hit counter) rather than quietly recomputing.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"janus"
	"janus/internal/artcache"
	"janus/internal/workloads"
)

// resetMemoryTiers drops every in-process memo so the next render must
// go through the durable tier (or recompute). Without this, the warm
// render would be served entirely from pointer-keyed memory memos and
// the disk cache would never be exercised in-process.
func resetMemoryTiers() {
	janus.ResetMemos()
	workloads.ResetBuildCache()
}

func TestGoldenColdWarmOff(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-suite renders; run without -short")
	}
	want := readGolden(t)
	dir := t.TempDir()
	cache, err := artcache.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	withCache := func() Options {
		o := DefaultOptions()
		o.CacheDir = dir
		return o
	}

	resetMemoryTiers()
	diffGolden(t, "cache off", renderSuite(t, DefaultOptions()), want)

	resetMemoryTiers()
	diffGolden(t, "cold cache", renderSuite(t, withCache()), want)
	cold := cache.Stats()
	if cold.Misses == 0 {
		t.Fatalf("cold render recorded no misses (%s): the cache was not consulted", cold)
	}

	resetMemoryTiers()
	diffGolden(t, "warm cache", renderSuite(t, withCache()), want)
	warm := cache.Stats()
	if warm.Hits <= cold.Hits {
		t.Fatalf("warm render recorded no new hits: cold %s, warm %s", cold, warm)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("warm render missed %d times beyond the cold run: some artifact key is unstable across runs (cold %s, warm %s)",
			warm.Misses-cold.Misses, cold, warm)
	}
	if warm.BadEntries != 0 {
		t.Errorf("store reported corrupt entries on a healthy run: %s", warm)
	}

	// A warm replay repeats the cold render's lookups one for one: what
	// a render looks up is a function of the render alone, never of
	// what the store happened to hold.
	lookups := cold.Hits + cold.Misses
	if got := warm.Hits - cold.Hits; got != lookups {
		t.Errorf("warm render made %d lookups, cold made %d (cold %s, warm %s)", got, lookups, cold, warm)
	}

	// Every Janus run goes through the per-render run table, so each
	// spec looks its DBM result up exactly once: per parallelisable
	// benchmark the full configuration at 1..Threads on O3 (figures 8,
	// 9, 10, 11, 12 and Table I share them), figure 7's two partial
	// configurations, figure 12's O2 and O3AVX builds, figure 7's
	// bare-DBM run, and figure 11's two modelled compilers, which are
	// clients of the same dbm tier under their own schedule and cost
	// model. The store's entry counts give the other kinds' lookups:
	// each build, native baseline and profile is looked up once per key
	// behind its memory tier, except that figure 6 and Parallelise
	// profile the nine parallelisable train builds under different
	// analyses and so each look that profile up.
	names := int64(len(workloads.ParallelisableNames()))
	entries := entriesByKind(t, dir)
	var others int64
	for kind, n := range entries {
		if !strings.HasPrefix(kind, "dbm-") {
			others += n
		}
	}
	wantDBM := names*(DefaultThreads+2+2) + names + 2*names
	if got := lookups - others - names; got != wantDBM {
		t.Errorf("cold render made %d DBM-result lookups, want %d — one per distinct run (store entries %v, cold %s)",
			got, wantDBM, entries, cold)
	}
	// The modelled compilers measure against the native baseline of the
	// build they share with a Janus row (O3 for gcc, O3AVX for icc), so
	// the baselines stay one per ref build of figure 12's three levels.
	if got, want := entries["native-v1"], 3*names; got != want {
		t.Errorf("store holds %d native baselines, want %d — one per parallelisable ref build (store entries %v)", got, want, entries)
	}
}

// TestFigure11EnginesDoNotShareRuns: figure 11 — the Janus rows and the
// modelled compilers alike — replays wholly from a warm store, and a
// round-robin render of it replays everything but the DBM runs: the
// engine selection is part of every dbm key, so one engine's stored
// Stats are never served as the other's.
func TestFigure11EnginesDoNotShareRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("three figure-11 renders; run without -short")
	}
	dir := t.TempDir()
	cache, err := artcache.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.CacheDir = dir
	fig11 := func(o Options) (string, artcache.Stats) {
		t.Helper()
		resetMemoryTiers()
		before := cache.Stats()
		rows, err := Figure11(o)
		if err != nil {
			t.Fatal(err)
		}
		after := cache.Stats()
		return RenderFigure11(rows), artcache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	}

	want, _ := fig11(o)
	if !strings.Contains(readGolden(t), want) {
		t.Fatal("figure 11 render not found inside the golden fixture")
	}
	stored := entriesByKind(t, dir)

	got, warm := fig11(o)
	if got != want || warm.Misses != 0 {
		t.Errorf("warm figure 11 was not a replay (%s)", warm)
	}

	o.SingleGoroutine = true
	got, rr := fig11(o)
	if got != want {
		t.Error("round-robin figure 11 renders differently")
	}
	if rr.Misses != stored["dbm-v2"] || rr.Hits != warm.Hits-stored["dbm-v2"] {
		t.Errorf("round-robin render on the default engine's store: %s — want exactly the %d DBM runs missed", rr, stored["dbm-v2"])
	}
	now := entriesByKind(t, dir)
	for kind, n := range stored {
		want := n
		if kind == "dbm-v2" {
			want *= 2
		}
		if now[kind] != want {
			t.Errorf("%s: %d entries after the second engine, want %d", kind, now[kind], want)
		}
	}
}

// entriesByKind counts the store's artifacts per kind directory.
func entriesByKind(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	counts := map[string]int64{}
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

// TestCacheCorruptionHealsAcrossRender corrupts every on-disk artifact
// after a populated render and checks the next render detects the
// damage, recomputes, and still matches the golden fixture exactly.
func TestCacheCorruptionHealsAcrossRender(t *testing.T) {
	if testing.Short() {
		t.Skip("two full figure renders; run without -short")
	}
	want := readGolden(t)
	dir := t.TempDir()
	cache, err := artcache.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.CacheDir = dir

	// One figure is enough to populate every artifact kind.
	resetMemoryTiers()
	rows, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	first := RenderFigure7(rows)

	// Flip a byte in every artifact.
	n := 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".art" {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xFF
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no artifacts were written by the first render")
	}

	resetMemoryTiers()
	rows, err = Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	second := RenderFigure7(rows)
	if second != first {
		t.Errorf("render after corruption differs from the pre-corruption render")
	}
	if !strings.Contains(want, first) {
		t.Errorf("figure 7 render not found inside the golden fixture")
	}
	st := cache.Stats()
	if st.BadEntries == 0 {
		t.Fatalf("no corrupt entries were detected: %s", st)
	}
}

// TestUnopenableCacheDirIsAnError: a CacheDir that cannot be opened
// (here: it names a regular file) must fail every entry point with the
// same error instead of letting RenderAll quietly render uncached.
func TestUnopenableCacheDirIsAnError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.CacheDir = file
	_, figErr := Figure7(o)
	if figErr == nil {
		t.Fatal("Figure7 accepted a CacheDir naming a regular file")
	}
	out, allErr := RenderAll(o, 0, 2)
	if allErr == nil {
		t.Fatalf("RenderAll swallowed the cache-open error and rendered %d bytes uncached", len(out))
	}
	if allErr.Error() != figErr.Error() {
		t.Fatalf("entry points disagree:\n RenderAll: %v\n Figure7:   %v", allErr, figErr)
	}
	if out != "" {
		t.Fatalf("RenderAll rendered despite the open failure:\n%s", out)
	}
}

package harness

// Cold/warm/off equivalence for the durable artifact cache: the suite
// rendered with the cache disabled, with an empty cache (cold), and
// against the populated cache (warm) must be byte-identical to the
// committed golden fixture, and the warm render must actually replay
// from disk (nonzero hit counter) rather than quietly recomputing.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"janus"
	"janus/internal/artcache"
	"janus/internal/rules"
	"janus/internal/workloads"
)

// fresh gives o a session of its own, build tiers included, so the
// render under it goes through the durable tier (or recomputes) instead
// of being served from another render's memory, and its TierStats count
// that render alone.
func fresh(o Options) Options {
	o.Session = janus.NewSession(workloads.NewMemo())
	return o
}

// statsDelta is how the store's counters moved between two snapshots,
// per kind included.
func statsDelta(before, after artcache.Stats) artcache.Stats {
	d := artcache.Stats{
		Hits:       after.Hits - before.Hits,
		Misses:     after.Misses - before.Misses,
		BadEntries: after.BadEntries - before.BadEntries,
		Kinds:      map[string]artcache.KindStats{},
	}
	for kind, a := range after.Kinds {
		b := before.Kinds[kind]
		if a != b {
			d.Kinds[kind] = artcache.KindStats{Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses}
		}
	}
	return d
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
		o := fresh(DefaultOptions())
		o.CacheDir = dir
		return o
	}

	diffGolden(t, "cache off", renderSuite(t, fresh(DefaultOptions())), want)
	if st := cache.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("a render with the cache off consulted the store: %s", st)
	}

	diffGolden(t, "cold cache", renderSuite(t, withCache()), want)
	cold := cache.Stats()

	o := withCache()
	saves := rules.Saves()
	diffGolden(t, "warm cache", renderSuite(t, o), want)
	warm, warmTiers := statsDelta(cold, cache.Stats()), o.Session.TierStats()
	if warm.Hits == 0 {
		t.Fatalf("warm render recorded no hits: cold %s, warm %s", cold, warm)
	}
	if warm.Misses != 0 {
		t.Errorf("warm render missed %d times: some artifact key is unstable across runs (cold %s; warm %s; %s)",
			warm.Misses, cold, warm, warm.KindsString())
	}
	if warm.BadEntries != 0 || cold.BadEntries != 0 {
		t.Errorf("store reported corrupt entries on a healthy run: cold %s, warm %s", cold, warm)
	}
	// A replayed plan brings its schedule's bytes, digest and size with
	// it: keying 127 runs and sizing figure 10 serialises nothing.
	if n := rules.Saves() - saves; n != 0 {
		t.Errorf("warm render serialised %d schedules, want 0", n)
	}

	// What the store holds after one render, per kind. all counts the
	// registry (figure 6 plans the train-O3 build of every benchmark),
	// names the parallelisable benchmarks, each built at figure 12's
	// three levels for ref and train inputs (the O3 train builds are
	// figure 6's). Every build has its identity recorded; the builds
	// themselves are assembled, never stored. Plans: one
	// per figure-6 row, five per parallelisable benchmark (the three
	// modes on O3, the full one on O2 and O3AVX — thread count is not
	// part of a plan) and the two modelled compilers. Baselines: one per
	// parallelisable ref build. Profiles: one per train build.
	all, names := int64(len(workloads.Names())), int64(len(workloads.ParallelisableNames()))
	entries := entriesByKind(t, dir)
	builds := all + 5*names
	for kind, n := range map[string]int64{
		"ident-v1":    builds,
		"schedule-v1": all + 5*names + 2*names,
		"native-v1":   3 * names,
		"profile-v1":  all + 2*names,
	} {
		if entries[kind] != n {
			t.Errorf("store holds %d %s entries, want %d (store entries %v)", entries[kind], kind, n, entries)
		}
	}

	// Every stage's memory key names what its disk key names, so the
	// cold render looks each artifact up exactly once — a miss — and
	// every later asker is answered from memory: no hits at all, and per
	// kind as many lookups as there are entries (355 in total: 70 / 88 /
	// 27 / 43 / 127).
	wantCold := map[string]artcache.KindStats{}
	for kind, n := range entries {
		wantCold[kind] = artcache.KindStats{Misses: n}
	}
	if cold.Hits != 0 || !reflect.DeepEqual(cold.Kinds, wantCold) {
		t.Errorf("cold render: %s, looked up %s; want each stored artifact missed once: %s",
			cold, cold.KindsString(), artcache.Stats{Kinds: wantCold}.KindsString())
	}

	// A warm replay does NOT repeat the cold render's lookups, by
	// design: what a stage looks up beneath a hit is skipped. A handle
	// opened from its identity record never looks the image up, and a
	// replayed plan never looks up the profile that trained it (nor
	// analyses, nor loads either binary). What remains is one hit per
	// identity, plan, baseline and run in the store (312: 70 / 88 / 27 /
	// 127).
	wantWarm := map[string]artcache.KindStats{
		"ident-v1":    {Hits: builds},
		"schedule-v1": {Hits: entries["schedule-v1"]},
		"native-v1":   {Hits: 3 * names},
		"dbm-v3":      {Hits: entries["dbm-v3"]},
	}
	if !reflect.DeepEqual(warm.Kinds, wantWarm) {
		t.Errorf("warm render looked up %s, want %s", warm.KindsString(), artcache.Stats{Kinds: wantWarm}.KindsString())
	}

	// The store no longer sees how often a stage was ASKED; the memory
	// tier does. One plan per Janus run (every spec of the run table: per
	// parallelisable benchmark the full configuration at 1..Threads on
	// O3, figure 7's two partial configurations, figure 12's O2 and
	// O3AVX builds), per figure-6 row and per modelled compiler; one DBM
	// result per Janus run, per bare-DBM run of figure 7 and per
	// modelled compiler, which is a client of the same dbm tier under
	// its own schedule and cost model. A figure that parallelises a
	// binary itself instead of reading the render's run table asks again,
	// and fails here.
	janusRuns := names * (DefaultThreads + 2 + 2)
	for kind, asked := range map[string]int64{
		"schedule-v1": janusRuns + all + 2*names,
		"dbm-v3":      janusRuns + names + 2*names,
	} {
		ts := warmTiers[kind]
		if got := warm.Kinds[kind].Hits + ts.MemHits; got != asked || ts.Computed != 0 {
			t.Errorf("warm render asked the %s stage %d times (%d from memory) and computed %d, want %d and 0",
				kind, got, ts.MemHits, ts.Computed, asked)
		}
	}
}

// TestCacheOffComputesWhatColdStores: cache off, cache cold and a warm
// process are the same amount of work for the same bytes. A render with
// the cache off computes, per stage, exactly as many artifacts as a cold
// render stores of that kind — nothing is computed twice — and a second
// identical render in the same session computes nothing at all.
func TestCacheOffComputesWhatColdStores(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-suite renders; run without -short")
	}
	want := readGolden(t)
	rendered := func(label string, o Options) map[string]artcache.TierStats {
		t.Helper()
		diffGolden(t, label, renderSuite(t, o), want)
		return o.Session.TierStats()
	}
	o := fresh(DefaultOptions())
	off := rendered("cache off", o)
	for kind, ts := range rendered("cache off, again", o) {
		if n := ts.Computed - off[kind].Computed; n != 0 {
			t.Errorf("a second render in one session computed %d %s artifacts, want 0", n, kind)
		}
	}

	o = fresh(DefaultOptions())
	o.CacheDir = t.TempDir()
	cold := rendered("cold cache", o)
	entries := entriesByKind(t, o.CacheDir)
	if len(entries) != 5 {
		t.Fatalf("cold store holds kinds %v, want five", entries)
	}
	for kind, n := range entries {
		// An identity record is derived only where there is a store to
		// key into; every other stage is the same work either way.
		if kind != "ident-v1" && off[kind].Computed != n {
			t.Errorf("cache off computed %d %s artifacts, a cold store holds %d", off[kind].Computed, kind, n)
		}
		if cold[kind].Computed != n {
			t.Errorf("cache cold computed %d %s artifacts and stored %d", cold[kind].Computed, kind, n)
		}
	}
	// Builds are not stored: each is assembled once, with or without a
	// store, and has its identity recorded.
	if off["build"].Computed != entries["ident-v1"] || cold["build"].Computed != entries["ident-v1"] {
		t.Errorf("cache off assembled %d builds, cache cold %d; the cold store records %d identities",
			off["build"].Computed, cold["build"].Computed, entries["ident-v1"])
	}
}

// TestFigure11ReplaysAroundMissingRuns: figure 11 — the Janus rows and
// the modelled compilers alike — replays wholly from a warm store, and
// with every stored DBM result gone it replays everything but the DBM
// runs: the plans all hit, exactly the runs miss and execute again, and
// only the binaries of the missed runs are assembled.
func TestFigure11ReplaysAroundMissingRuns(t *testing.T) {
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
	// builds is how many binaries the last fig11 assembled.
	var builds int64
	fig11 := func(o Options) (string, artcache.Stats) {
		t.Helper()
		o = fresh(o)
		before := cache.Stats()
		rows, err := launch(context.Background(), o, figure11)
		if err != nil {
			t.Fatal(err)
		}
		builds = o.Session.TierStats()["build"].Computed
		return RenderFigure11(rows), statsDelta(before, cache.Stats())
	}

	want, _ := fig11(o)
	if !strings.Contains(readGolden(t), want) {
		t.Fatal("figure 11 render not found inside the golden fixture")
	}
	stored := entriesByKind(t, dir)

	got, warm := fig11(o)
	if got != want || warm.Misses != 0 || warm.BadEntries != 0 {
		t.Errorf("warm figure 11 was not a replay (%s; %s)", warm, warm.KindsString())
	}
	if ks := warm.Kinds["schedule-v1"]; ks.Hits != stored["schedule-v1"] || warm.Kinds["profile-v1"].Hits != 0 || builds != 0 {
		t.Errorf("warm figure 11 did not replay its %d plans image-free: %s, %d builds assembled", stored["schedule-v1"], warm.KindsString(), builds)
	}

	for _, f := range artifactsOf(t, dir, "dbm-v3") {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	got, missed := fig11(o)
	if got != want {
		t.Error("figure 11 renders differently with its DBM runs executed again")
	}
	// The missed runs execute, so their binaries are materialised: one
	// assembly each, beneath the identity that opened them.
	if builds != stored["native-v1"] {
		t.Errorf("the render assembled %d binaries, want one per baseline: %d", builds, stored["native-v1"])
	}
	missedWant := map[string]artcache.KindStats{}
	for kind, ks := range warm.Kinds {
		missedWant[kind] = ks
	}
	missedWant["dbm-v3"] = artcache.KindStats{Misses: stored["dbm-v3"]}
	if !reflect.DeepEqual(missed.Kinds, missedWant) {
		t.Errorf("the render without stored runs looked up %s, want %s — exactly the %d DBM runs missed, every plan hit",
			missed.KindsString(), artcache.Stats{Kinds: missedWant}.KindsString(), stored["dbm-v3"])
	}
	if now := entriesByKind(t, dir); !reflect.DeepEqual(now, stored) {
		t.Errorf("store holds %v after the runs executed again, want %v", now, stored)
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
	rows, err := launch(context.Background(), fresh(o), figure7)
	if err != nil {
		t.Fatal(err)
	}
	first := RenderFigure7(rows)
	stored := entriesByKind(t, dir)
	for _, kind := range []string{"ident-v1", "schedule-v1", "native-v1", "profile-v1", "dbm-v3"} {
		if stored[kind] == 0 {
			t.Fatalf("figure 7 stored no %s entry to corrupt (store entries %v)", kind, stored)
		}
	}

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

	rows, err = launch(context.Background(), fresh(o), figure7)
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
	_, figErr := launch(context.Background(), o, figure7)
	if figErr == nil {
		t.Fatal("figure 7 accepted a CacheDir naming a regular file")
	}
	out, allErr := RenderAll(o, 0, 2)
	if allErr == nil {
		t.Fatalf("RenderAll swallowed the cache-open error and rendered %d bytes uncached", len(out))
	}
	if allErr.Error() != figErr.Error() {
		t.Fatalf("entry points disagree:\n RenderAll: %v\n launch:    %v", allErr, figErr)
	}
	if out != "" {
		t.Fatalf("RenderAll rendered despite the open failure:\n%s", out)
	}
}

// artifactsOf lists the store's entry files of one kind.
func artifactsOf(t *testing.T, dir, kind string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, kind, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("store holds no %s entries", kind)
	}
	return files
}

// reseal rewrites the entry at path to carry payload under its own key
// digest (artcache entry format: magic, key digest, payload length,
// payload SHA-256, payload): a well-formed entry only its consumer can
// find fault with.
func reseal(t *testing.T, path string, payload []byte) {
	t.Helper()
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte{}, entry[:40]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	if err := os.WriteFile(path, append(out, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestImageFreeReplay pins what makes a warm replay image-free and what
// it costs nothing in safety: build images left in a store by older
// releases are never read, an identity record that lies about its image
// is caught the moment the image is needed, an image needed by a missing
// result is assembled to the identity on record, and a fresh session
// holds nothing that a fresh process would not.
func TestImageFreeReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("one cold and six warm full-suite renders; run without -short")
	}
	want := readGolden(t)
	dir := t.TempDir()
	cache, err := artcache.OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.CacheDir = dir
	// builds is how many binaries the last replay assembled.
	var builds int64
	replay := func(label string) artcache.Stats {
		t.Helper()
		o := fresh(o)
		before := cache.Stats()
		diffGolden(t, label, renderSuite(t, o), want)
		builds = o.Session.TierStats()["build"].Computed
		return statsDelta(before, cache.Stats())
	}
	replay("cold")

	// (f) A fresh session is a fresh process: a second warm render
	// re-reads the store lookup for lookup, so no handle, identity or
	// plan reaches it in memory.
	first := replay("warm")
	again := replay("warm again")
	if first.Misses != 0 || first.BadEntries != 0 || first.Hits == 0 || !reflect.DeepEqual(first, again) {
		t.Fatalf("warm renders after the memory resets differ or recompute: first %s (%s), again %s (%s)",
			first, first.KindsString(), again, again.KindsString())
	}

	// (a) A store written by a release that still stored build images
	// under "build-v1" replays the same: that directory is never read.
	// Plant one entry per build under the key that release used.
	const imageKind = "build-v1"
	planted := 0
	for _, name := range workloads.Names() {
		for _, in := range []workloads.Input{workloads.Train, workloads.Ref} {
			for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
				k := artcache.Key{
					Kind:   imageKind,
					Binary: name,
					Input:  in.String(),
					Config: "opt=" + opt.String() + " schema=" + workloads.BuildSchema,
				}
				if err := cache.Put(k, []byte("JEXE0001 "+name)); err != nil {
					t.Fatal(err)
				}
				planted++
			}
		}
	}
	if d := replay("image entries planted"); !reflect.DeepEqual(d, first) {
		t.Fatalf("render beside stored images was not the same pure replay: %s (%s), want %s", d, d.KindsString(), first.KindsString())
	}

	// (c) Identity on record, one downstream result gone: the run
	// executes on an assembled image, which hashes to the record —
	// nothing is bad, one build is assembled, none is stored.
	if err := os.Remove(artifactsOf(t, dir, "dbm-v3")[0]); err != nil {
		t.Fatal(err)
	}
	d := replay("one run missing")
	if d.BadEntries != 0 || d.Kinds["dbm-v3"].Misses == 0 || d.Misses != d.Kinds["dbm-v3"].Misses || builds != 1 {
		t.Fatalf("want the missing run executed on one assembled image and nothing else recomputed: %s (%s), %d builds assembled", d, d.KindsString(), builds)
	}
	if n := entriesByKind(t, dir)[imageKind]; n != int64(planted) {
		t.Fatalf("%d %s entries after the replay, %d planted", n, imageKind, planted)
	}
	if d := replay("healed"); !reflect.DeepEqual(d, first) {
		t.Fatalf("store did not heal to a pure replay: %s (%s)", d, d.KindsString())
	}

	// (b) A well-formed identity record naming another binary. Replays
	// keyed by it find nothing, so its image is materialised — and seen
	// not to be the binary on record. The record is counted bad and
	// rewritten, nothing is published under the wrong identity, and the
	// render is golden.
	record := artifactsOf(t, dir, "ident-v1")[0]
	honest, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		ID       string
		CodeSize int
	}
	if err := json.Unmarshal(honest[80:], &rec); err != nil {
		t.Fatal(err)
	}
	rec.ID = strings.Repeat("0", len(rec.ID))
	lie, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	reseal(t, record, lie)
	if err := os.Remove(artifactsOf(t, dir, "dbm-v3")[0]); err != nil {
		t.Fatal(err)
	}
	stored := entriesByKind(t, dir)
	d = replay("lying identity record")
	if d.BadEntries != 1 {
		t.Fatalf("lying identity record: %d bad entries counted, want 1 (%s; %s)", d.BadEntries, d, d.KindsString())
	}
	if healed, err := os.ReadFile(record); err != nil || string(healed) != string(honest) {
		t.Fatalf("identity record was not rewritten from its image (%v)", err)
	}
	now := entriesByKind(t, dir)
	now["dbm-v3"]-- // the removed run, re-executed
	if !reflect.DeepEqual(now, stored) {
		t.Fatalf("artifacts were published under the wrong identity: entries %v, were %v", now, stored)
	}
	if d := replay("healed record"); !reflect.DeepEqual(d, first) {
		t.Fatalf("store did not heal to a pure replay: %s (%s)", d, d.KindsString())
	}
}

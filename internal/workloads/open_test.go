package workloads

import (
	"reflect"
	"testing"

	"janus/internal/artcache"
	"janus/internal/obj"
)

// TestOpenWithoutStoreIsEager: with no store the handle is the build,
// shared per (name, input, opt), and ResetBuildCache drops it.
func TestOpenWithoutStoreIsEager(t *testing.T) {
	ResetBuildCache()
	bin, err := Open(nil, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := Build("470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	if e, l, err := bin.Image(); e != exe || len(l) != len(libs) || err != nil {
		t.Fatalf("handle's image is not the build: %v, %v, %v", e, l, err)
	}
	if again, _ := Open(nil, "470.lbm", Train, O3); again != bin {
		t.Fatal("second Open returned another handle")
	}
	ResetBuildCache()
	if fresh, _ := Open(nil, "470.lbm", Train, O3); fresh == bin {
		t.Fatal("ResetBuildCache kept the handle")
	}
	if _, err := Open(nil, "no-such-benchmark", Train, O3); err == nil {
		t.Fatal("unknown benchmark opened")
	}
}

// TestOpenReadsTheRecordNotTheImage: the first Open against a store
// assembles the build and publishes its identity record; a later
// process state opens from the record alone — same identity, same code
// size, nothing assembled — and assembles the image only when asked,
// which then checks out against the record.
func TestOpenReadsTheRecordNotTheImage(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ResetBuildCache()
	cold, err := Open(c, "410.bwaves", Ref, O3)
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, _ := cold.Image()
	st := c.Stats()
	if want := map[string]artcache.KindStats{"ident-v1": {Misses: 1}}; !reflect.DeepEqual(st.Kinds, want) {
		t.Fatalf("cold Open looked up %s", st.KindsString())
	}
	if cold.ID() != obj.Identity(exe, libs) {
		t.Fatal("cold handle's identity is not its image's")
	}

	ResetBuildCache()
	assembled := buildTier.Stats().Computed
	warm, err := Open(c, "410.bwaves", Ref, O3)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ID() != cold.ID() || warm.CodeSize() != len(exe.Code) {
		t.Fatalf("record says %s with %d code bytes, build is %s with %d", warm.ID(), warm.CodeSize(), cold.ID(), len(exe.Code))
	}
	st = c.Stats()
	want := map[string]artcache.KindStats{"ident-v1": {Hits: 1, Misses: 1}}
	if !reflect.DeepEqual(st.Kinds, want) || buildTier.Stats().Computed != assembled {
		t.Fatalf("warm Open looked up %s and assembled %d builds — want the record alone", st.KindsString(), buildTier.Stats().Computed-assembled)
	}
	loaded, libs, err := warm.Image()
	if err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if loaded == exe || buildTier.Stats().Computed != assembled+1 || obj.Identity(loaded, libs) != cold.ID() ||
		st.BadEntries != 0 || warm.ID() != cold.ID() || !reflect.DeepEqual(st.Kinds, want) {
		t.Fatalf("image was not assembled anew and accepted: %s (%s)", st, st.KindsString())
	}
}

// TestOpenHealsALyingRecord: a record that verifies but names another
// binary is believed until its image is loaded; then the handle takes
// the image's identity, the record is counted bad and rewritten, and
// the next process state reads the truth.
func TestOpenHealsALyingRecord(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := ByName("470.lbm")
	key, _ := buildDiskKey(bm, Train, O3)
	ResetBuildCache()
	honest, err := Open(c, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	identTier.Replace(c, key, ident{ID: "someone-else", CodeSize: honest.CodeSize()})
	bad := c.Stats().BadEntries

	ResetBuildCache()
	lying, err := Open(c, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	if lying.ID() != "someone-else" {
		t.Fatalf("record not served: %s", lying.ID())
	}
	if _, _, err := lying.Image(); err != nil {
		t.Fatal(err)
	}
	if lying.ID() != honest.ID() || c.Stats().BadEntries != bad+1 {
		t.Fatalf("after loading: handle says %s (image is %s), %d bad entries counted", lying.ID(), honest.ID(), c.Stats().BadEntries-bad)
	}
	ResetBuildCache()
	healed, err := Open(c, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	if healed.ID() != honest.ID() {
		t.Fatalf("record was not rewritten: %s", healed.ID())
	}
}

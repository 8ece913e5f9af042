package workloads

import (
	"reflect"
	"strings"
	"testing"

	"janus/internal/artcache"
	"janus/internal/obj"
)

// TestOpenWithoutStoreIsEager: with no store the handle is the build,
// shared per (name, input, opt) within a Memo and not beyond it.
func TestOpenWithoutStoreIsEager(t *testing.T) {
	m := NewMemo()
	bin, err := m.Open(nil, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, err := m.Build("470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	if e, l, err := bin.Image(); e != exe || len(l) != len(libs) || err != nil {
		t.Fatalf("handle's image is not the build: %v, %v, %v", e, l, err)
	}
	if again, _ := m.Open(nil, "470.lbm", Train, O3); again != bin {
		t.Fatal("second Open returned another handle")
	}
	if fresh, _ := NewMemo().Open(nil, "470.lbm", Train, O3); fresh == bin {
		t.Fatal("a fresh Memo had the handle")
	}
	if _, err := m.Open(nil, "no-such-benchmark", Train, O3); err == nil {
		t.Fatal("unknown benchmark opened")
	}
}

// TestOpenReadsTheRecordNotTheImage: the first Open against a store
// assembles the build and publishes its identity record; a fresh Memo
// opens from the record alone — same identity, same code
// size, nothing assembled — and assembles the image only when asked,
// which then checks out against the record.
func TestOpenReadsTheRecordNotTheImage(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewMemo().Open(c, "410.bwaves", Ref, O3)
	if err != nil {
		t.Fatal(err)
	}
	exe, libs, _ := cold.Image()
	st := c.Stats()
	if want := map[string]artcache.KindStats{"ident-v2": {Misses: 1}}; !reflect.DeepEqual(st.Kinds, want) {
		t.Fatalf("cold Open looked up %s", st.KindsString())
	}
	if cold.ID() != obj.Identity(exe, libs) {
		t.Fatal("cold handle's identity is not its image's")
	}

	m := NewMemo()
	warm, err := m.Open(c, "410.bwaves", Ref, O3)
	if err != nil {
		t.Fatal(err)
	}
	if warm.ID() != cold.ID() || warm.CodeSize() != len(exe.Code) {
		t.Fatalf("record says %s with %d code bytes, build is %s with %d", warm.ID(), warm.CodeSize(), cold.ID(), len(exe.Code))
	}
	st = c.Stats()
	want := map[string]artcache.KindStats{"ident-v2": {Hits: 1, Misses: 1}}
	if !reflect.DeepEqual(st.Kinds, want) || m.builds.Stats().Computed != 0 {
		t.Fatalf("warm Open looked up %s and assembled %d builds — want the record alone", st.KindsString(), m.builds.Stats().Computed)
	}
	loaded, libs, err := warm.Image()
	if err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if loaded == exe || m.builds.Stats().Computed != 1 || obj.Identity(loaded, libs) != cold.ID() ||
		st.BadEntries != 0 || warm.ID() != cold.ID() || !reflect.DeepEqual(st.Kinds, want) {
		t.Fatalf("image was not assembled anew and accepted: %s (%s)", st, st.KindsString())
	}
}

// TestOpenHealsALyingRecord: a record that verifies and is well formed
// but names another binary is believed until its image is loaded; then the handle takes
// the image's identity, the record is counted bad and rewritten, and
// a fresh Memo reads the truth.
func TestOpenHealsALyingRecord(t *testing.T) {
	c, err := artcache.Open(t.TempDir(), artcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bm, _ := ByName("470.lbm")
	key := buildDiskKey(bm, Train, O3)
	m := NewMemo()
	honest, err := m.Open(c, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	someoneElse := strings.Repeat("0", len(honest.ID()))
	m.idents.Replace(c, key, ident{ID: someoneElse, CodeSize: honest.CodeSize()})
	bad := c.Stats().BadEntries

	lying, err := NewMemo().Open(c, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	if lying.ID() != someoneElse {
		t.Fatalf("record not served: %s", lying.ID())
	}
	if _, _, err := lying.Image(); err != nil {
		t.Fatal(err)
	}
	if lying.ID() != honest.ID() || c.Stats().BadEntries != bad+1 {
		t.Fatalf("after loading: handle says %s (image is %s), %d bad entries counted", lying.ID(), honest.ID(), c.Stats().BadEntries-bad)
	}
	healed, err := NewMemo().Open(c, "470.lbm", Train, O3)
	if err != nil {
		t.Fatal(err)
	}
	if healed.ID() != honest.ID() {
		t.Fatalf("record was not rewritten: %s", healed.ID())
	}
}

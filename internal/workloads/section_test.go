package workloads

import (
	"bytes"
	"runtime"
	"testing"

	"janus/internal/obj"
	"janus/internal/vm"
)

// sectionBytes returns s's bytes, absent pages as zeros.
func sectionBytes(s *obj.Section) []byte {
	var b bytes.Buffer
	s.WriteTo(&b)
	return b.Bytes()
}

// TestRegistrySectionsShared: for every registry (benchmark, input) the
// three optimisation levels' executables alias one data section — the
// same pages, one loaded image — whose bytes equal what a fresh,
// unshared assembly generates, and which holds no page that no
// initialised symbol lands in.
func TestRegistrySectionsShared(t *testing.T) {
	memo := NewMemo()
	var present, covered int
	for _, bm := range registry {
		for _, in := range []Input{Train, Ref} {
			var image any
			for _, opt := range []OptLevel{O2, O3, O3AVX} {
				exe, libs, err := memo.Build(bm.Name, in, opt)
				if err != nil {
					t.Fatal(err)
				}
				m, err := vm.NewMachine(exe, libs...)
				if err != nil {
					t.Fatal(err)
				}
				m.Close()
				img := exe.Section.Loaded(func() any {
					t.Fatalf("%s %s %s: loading did not build the section's image", bm.Name, in, opt)
					return nil
				})
				if image == nil {
					image = img
					fresh, err := assemble(bm, in, opt).Build()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sectionBytes(exe.Section), sectionBytes(fresh.Section)) || exe.Section.Base != fresh.Section.Base {
						t.Fatalf("%s %s: shared section differs from a fresh assembly", bm.Name, in)
					}
					for i, p := range exe.Section.Pages {
						if p != nil && p == fresh.Section.Pages[i] {
							t.Fatalf("%s %s: a fresh assembly aliased a page of the shared section", bm.Name, in)
						}
						if p != nil {
							present++
						}
					}
					covered += len(exe.Section.Pages)
					continue
				}
				if img != image {
					t.Errorf("%s %s %s: a second image was built for the section", bm.Name, in, opt)
				}
				o2, _, _ := memo.Build(bm.Name, in, O2)
				if exe.Section != o2.Section || len(exe.Section.Pages) == 0 || &exe.Section.Pages[0] != &o2.Section.Pages[0] {
					t.Errorf("%s %s %s: data section pages not shared with O2", bm.Name, in, opt)
				}
			}
		}
	}
	// About half the registry's section pages hold only reserved,
	// never-initialised data.
	if present*4 > covered*3 {
		t.Errorf("registry sections hold %d of the %d pages they cover: zero pages were made", present, covered)
	}
}

// TestSecondOptLevelAllocatesLittle: a build at a second optimisation
// level over its memoised section generates no section and encodes no
// runtime text again; it allocates its own code, symbols and assembly
// bookkeeping. A parent that regenerated the section or re-emitted the
// runtime text instruction by instruction allocated 238 KB here.
func TestSecondOptLevelAllocatesLittle(t *testing.T) {
	memo := NewMemo()
	if _, _, err := memo.Build("429.mcf", Ref, O3); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exe, _, err := memo.Build("429.mcf", Ref, O2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 96<<10 {
		t.Fatalf("an O2 build over the memoised section (%d bytes of code) allocated %d bytes, want <= 96 KiB", len(exe.Code), got)
	}
}

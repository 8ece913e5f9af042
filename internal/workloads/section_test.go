package workloads

import (
	"bytes"
	"testing"

	"janus/internal/vm"
)

// TestRegistrySectionsShared: for every registry (benchmark, input) the
// three optimisation levels' executables alias one data section — one
// backing array, one loaded image — whose bytes equal what a fresh,
// unshared assembly generates.
func TestRegistrySectionsShared(t *testing.T) {
	memo := NewMemo()
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
				img := exe.DataSection().Loaded(func() any {
					t.Fatalf("%s %s %s: loading did not build the section's image", bm.Name, in, opt)
					return nil
				})
				if image == nil {
					image = img
					fresh, err := assemble(bm, in, opt).Build()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(exe.Data, fresh.Data) || exe.DataBase != fresh.DataBase {
						t.Fatalf("%s %s: shared section differs from a fresh assembly", bm.Name, in)
					}
					if &exe.Data[0] == &fresh.Data[0] {
						t.Fatalf("%s %s: a fresh assembly aliased the shared section", bm.Name, in)
					}
					continue
				}
				if img != image {
					t.Errorf("%s %s %s: a second image was built for the section", bm.Name, in, opt)
				}
				o2, _, _ := memo.Build(bm.Name, in, O2)
				if &exe.Data[0] != &o2.Data[0] || exe.DataSection() != o2.DataSection() {
					t.Errorf("%s %s %s: data section not shared with O2", bm.Name, in, opt)
				}
			}
		}
	}
}

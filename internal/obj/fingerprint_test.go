package obj_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"janus/internal/obj"
	"janus/internal/workloads"
)

// refEncoder writes the canonical little-endian encoding field by
// field, independently of the package's own encoder: stored keys depend
// on these exact bytes, so the fingerprints are pinned to them here.
type refEncoder struct{ bytes.Buffer }

func (r *refEncoder) u64(v uint64) { r.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (r *refEncoder) str(s string) { r.u64(uint64(len(s))); r.WriteString(s) }

func (r *refEncoder) section(base uint64, b []byte) { r.u64(base); r.u64(uint64(len(b))); r.Write(b) }

func (r *refEncoder) symbols(syms []obj.Symbol) {
	r.u64(uint64(len(syms)))
	for _, s := range syms {
		r.str(s.Name)
		r.u64(s.Addr)
		r.u64(s.Size)
		r.WriteByte(byte(s.Kind))
	}
}

func (r *refEncoder) sum() string {
	sum := sha256.Sum256(r.Bytes())
	return hex.EncodeToString(sum[:])
}

// saveReference hashes an executable's image in the format obj once
// saved to files ("JEXE0001", name, entry, code and data sections,
// strip flag, symbols, imports): every identity record in a store
// hashes these bytes.
func saveReference(e *obj.Executable) string {
	var r refEncoder
	r.WriteString("JEXE0001")
	r.str(e.Name)
	r.u64(e.Entry)
	r.section(e.CodeBase, e.Code)
	r.section(e.DataBase, e.Data)
	if e.Stripped {
		r.WriteByte(1)
	} else {
		r.WriteByte(0)
	}
	r.symbols(e.Symbols)
	r.u64(uint64(len(e.Imports)))
	for _, im := range e.Imports {
		r.str(im.Name)
		r.u64(im.PLT)
	}
	return r.sum()
}

// libraryReference hashes a library's canonical encoding (name, base,
// code, symbol table).
func libraryReference(l *obj.Library) string {
	var r refEncoder
	r.str(l.Name)
	r.section(l.Base, l.Code)
	r.symbols(l.Symbols)
	return r.sum()
}

// TestFingerprintIsHashOfSave pins, for every registry build, what the
// artifact cache's keys rest on: Fingerprint streams exactly the bytes
// of the executable's saved image and of the library's canonical
// encoding, written out independently above — so a build assembled
// here has the identity a store recorded for it, by this process or an
// older one.
func TestFingerprintIsHashOfSave(t *testing.T) {
	// Registry builds are stripped; the symbol table is pinned here.
	unstripped := &obj.Executable{
		Name: "sample", Entry: obj.DefaultCodeBase,
		CodeBase: obj.DefaultCodeBase, Code: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		DataBase: obj.DefaultDataBase, Data: []byte{9, 10},
		Symbols: []obj.Symbol{{Name: "main", Addr: obj.DefaultCodeBase, Size: 8, Kind: obj.SymFunc}, {Name: "x", Addr: obj.DefaultDataBase, Size: 2, Kind: obj.SymData}},
		Imports: []obj.Import{{Name: "pow", PLT: obj.DefaultCodeBase}},
	}
	if got, want := unstripped.Fingerprint(), saveReference(unstripped); got != want {
		t.Errorf("unstripped executable: Fingerprint %s, reference image hashes to %s", got, want)
	}
	if unstripped.Strip().Fingerprint() == unstripped.Fingerprint() {
		t.Error("stripping an executable with symbols kept its fingerprint")
	}
	if testing.Short() {
		t.Skip("assembles every registry build; run without -short")
	}
	par := workloads.ParallelisableNames()
	seenLib := false
	for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
		names := par
		if opt == workloads.O3 {
			names = workloads.Names()
		}
		for _, name := range names {
			for _, in := range []workloads.Input{workloads.Train, workloads.Ref} {
				exe, libs, err := workloads.Build(name, in, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := exe.Fingerprint(), saveReference(exe); got != want {
					t.Errorf("%s: Fingerprint %s, reference image hashes to %s", exe.Name, got, want)
				}
				if got := exe.Strip().Fingerprint(); exe.Stripped != (got == exe.Fingerprint()) {
					t.Errorf("%s: stripping must change the fingerprint exactly when it changes the binary", exe.Name)
				}
				for _, l := range libs {
					seenLib = true
					if got, want := l.Fingerprint(), libraryReference(l); got != want {
						t.Errorf("%s: library fingerprint %s, reference encoding hashes to %s", exe.Name, got, want)
					}
				}
			}
		}
	}
	if !seenLib {
		t.Fatal("no registry build links a library: the library fingerprint went untested")
	}
}

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

// libraryReference hashes a library's canonical encoding written out
// field by field: a Library has no Save to compare its streamed
// fingerprint with, and stored keys depend on these exact bytes.
func libraryReference(l *obj.Library) string {
	var buf bytes.Buffer
	u64 := func(v uint64) { buf.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	str := func(s string) { u64(uint64(len(s))); buf.WriteString(s) }
	str(l.Name)
	u64(l.Base)
	u64(uint64(len(l.Code)))
	buf.Write(l.Code)
	u64(uint64(len(l.Symbols)))
	for _, s := range l.Symbols {
		str(s.Name)
		u64(s.Addr)
		u64(s.Size)
		buf.WriteByte(byte(s.Kind))
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestFingerprintIsHashOfSave pins, for every registry build, what the
// artifact cache's keys rest on: Fingerprint streams exactly the bytes
// Save materialises, Save allocates exactly its image, and the image
// survives a Load/Save round trip — so a build assembled here and one
// replayed from a build-v1 entry have the same identity.
func TestFingerprintIsHashOfSave(t *testing.T) {
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
				img := exe.Save()
				if cap(img) != len(img) {
					t.Errorf("%s: Save allocated %d bytes for a %d-byte image", exe.Name, cap(img), len(img))
				}
				sum := sha256.Sum256(img)
				if got, want := exe.Fingerprint(), hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s: Fingerprint %s, sha256(Save()) %s", exe.Name, got, want)
				}
				back, err := obj.Load(img)
				if err != nil {
					t.Fatalf("%s: %v", exe.Name, err)
				}
				if !bytes.Equal(back.Save(), img) {
					t.Errorf("%s: image changed across Load/Save", exe.Name)
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

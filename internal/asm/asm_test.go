package asm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"janus/internal/guest"
	"janus/internal/obj"
)

func TestLabelResolution(t *testing.T) {
	b := NewBuilder("labels")
	f := b.Func("main")
	skip := f.NewLabel()
	f.J(guest.JMP, skip)
	f.Nop()
	f.Nop()
	f.Bind(skip)
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	insts, _ := exe.Decode()
	if insts[0].Op != guest.JMP {
		t.Fatal("first inst not JMP")
	}
	want := exe.CodeBase + 3*guest.InstSize
	if uint64(insts[0].Imm) != want {
		t.Fatalf("jump target %#x, want %#x", insts[0].Imm, want)
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := NewBuilder("bad")
	f := b.Func("main")
	l := f.NewLabel()
	f.J(guest.JMP, l) // never bound
	if _, err := b.Build(); err == nil {
		t.Fatal("unbound label must fail")
	}
}

func TestUndefinedCallFails(t *testing.T) {
	b := NewBuilder("bad")
	f := b.Func("main")
	f.Call("missing")
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined call must fail")
	}
}

func TestUndefinedDataFails(t *testing.T) {
	b := NewBuilder("bad")
	f := b.Func("main")
	f.MoviData(guest.R1, "nodata", 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("undefined data must fail")
	}
}

// sectionBytes returns s's bytes, absent pages as zeros.
func sectionBytes(s *obj.Section) []byte {
	var b bytes.Buffer
	s.WriteTo(&b)
	return b.Bytes()
}

func TestDataLayout(t *testing.T) {
	b := NewBuilder("data")
	a1 := b.Data("a", 64)
	a2 := b.DataI64("b", []int64{1, 2, 3})
	a3 := b.DataF64("c", []float64{1.5})
	if a1 != obj.DefaultDataBase {
		t.Fatalf("first array at %#x", a1)
	}
	if a2 != a1+64 || a3 != a2+24 {
		t.Fatalf("layout: %#x %#x %#x", a1, a2, a3)
	}
	if b.DataAddr("b") != a2 {
		t.Fatal("DataAddr broken")
	}
	f := b.Func("main")
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Initialised values present in the image.
	if got := sectionBytes(exe.Section)[a2-obj.DefaultDataBase]; got != 1 {
		t.Fatalf("data[0] of b = %d", got)
	}
}

// TestDataSectionLaidOutOnce pins what Build hands over: reservations
// are zero, DataWords' values sit at their symbols whatever order they
// were emitted in, the section is exactly as long as what was reserved,
// and — because the executable now owns those bytes and the loader maps
// them into every machine — the builder refuses to build a second
// executable over them. The section is also written once: DataWords
// keeps its generator and Build evaluates it — symbols in declaration
// order, one call per index — straight into the final bytes, so a
// builder never holds a second copy of a symbol's data. DataF64 and
// DataI64 take their values when called, not when built.
func TestDataSectionLaidOutOnce(t *testing.T) {
	b := NewBuilder("once")
	w1 := b.DataWords("w1", 3, func(i int) uint64 { return uint64(10 + i) })
	z := b.Data("z", 40)
	w2 := b.DataWords("w2", 2, func(i int) uint64 { return ^uint64(i) })
	b.Func("main").Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, base := sectionBytes(exe.Section), exe.Section.Base
	if len(data) != 3*8+40+2*8 {
		t.Fatalf("data section is %d bytes", len(data))
	}
	word := func(addr uint64) uint64 {
		return binary.LittleEndian.Uint64(data[addr-base:])
	}
	if word(w1) != 10 || word(w1+16) != 12 || word(w2) != ^uint64(0) || word(w2+8) != ^uint64(1) {
		t.Fatal("DataWords values are not at their symbols")
	}
	for _, c := range data[z-base : z-base+40] {
		if c != 0 {
			t.Fatal("a zeroed reservation holds data")
		}
	}
	if s, ok := exe.SymbolByName("w2"); !ok || s.Addr != w2 || s.Size != 16 {
		t.Fatalf("symbol w2 = %+v", s)
	}
	if again, err := b.Build(); err == nil || again != nil {
		t.Fatal("a second Build on one builder did not fail")
	}

	const words = 1 << 17 // a 1 MiB symbol
	b = NewBuilder("big")
	var order []string
	vals := []int64{5, 6}
	var before, declared, built runtime.MemStats
	runtime.ReadMemStats(&before)
	b.DataWords("big", words, func(i int) uint64 {
		if i == 0 {
			order = append(order, "big")
		}
		return uint64(i)
	})
	vi := b.DataI64("vals", vals)
	b.DataWords("tail", 1, func(int) uint64 { order = append(order, "tail"); return 1 })
	vals[0] = 99 // the builder copied them
	b.Func("main").Halt()
	runtime.ReadMemStats(&declared)
	exe, err = b.Build()
	runtime.ReadMemStats(&built)
	if err != nil {
		t.Fatal(err)
	}
	if got := declared.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("declaring a %d-byte symbol allocated %d bytes: its data was materialised before Build", words*8, got)
	}
	if got := built.TotalAlloc - declared.TotalAlloc; got >= words*8*5/4 {
		t.Errorf("Build allocated %d bytes for a %d-byte section: the section was written more than once", got, exe.Section.Size)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "tail" {
		t.Errorf("generators ran as %v, want each once in declaration order", order)
	}
	data = sectionBytes(exe.Section)
	if got := binary.LittleEndian.Uint64(data[vi-exe.Section.Base:]); got != 5 {
		t.Errorf("DataI64 read its slice at Build: first value %d, want 5", got)
	}
	if got := binary.LittleEndian.Uint64(data[(words-1)*8:]); got != words-1 {
		t.Errorf("last generated word is %d", got)
	}
}

func TestEntryIsMain(t *testing.T) {
	b := NewBuilder("entry")
	h := b.Func("helper")
	h.Ret()
	m := b.Func("main")
	m.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := exe.SymbolByName("main")
	if !ok || exe.Entry != sym.Addr {
		t.Fatalf("entry %#x, main at %#x", exe.Entry, sym.Addr)
	}
}

func TestImportsCreatePLTStubs(t *testing.T) {
	b := NewBuilder("plt")
	b.Import("pow")
	b.Import("pow") // deduplicated
	b.Import("exp")
	f := b.Func("main")
	f.Call("pow")
	f.Call("exp")
	f.Halt()
	exe, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(exe.Imports) != 2 {
		t.Fatalf("imports: %v", exe.Imports)
	}
	// The PLT stubs live past the functions, inside the code section.
	for _, im := range exe.Imports {
		if !exe.InCode(im.PLT) {
			t.Fatalf("PLT %#x outside code", im.PLT)
		}
		if _, ok := exe.ImportAt(im.PLT); !ok {
			t.Fatal("ImportAt broken")
		}
	}
}

func TestLibraryRelocation(t *testing.T) {
	b := NewBuilder("lib")
	f := b.Func("f")
	l := f.NewLabel()
	f.Bind(l)
	f.Call("g")
	f.J(guest.JMP, l)
	g := b.Func("g")
	g.Ret()
	lib, err := b.BuildLibrary(0x7f00_0000_0000)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := lib.SymbolByName("g"); !ok || !lib.InCode(s.Addr) {
		t.Fatal("library symbol table broken")
	}
	// The CALL must target g's library address.
	insts, err := guest.DecodeAll(lib.Code)
	if err != nil {
		t.Fatal(err)
	}
	gsym, _ := lib.SymbolByName("g")
	if uint64(insts[0].Imm) != gsym.Addr {
		t.Fatalf("lib call target %#x, want %#x", insts[0].Imm, gsym.Addr)
	}
}

func TestLibraryRejectsData(t *testing.T) {
	b := NewBuilder("lib")
	b.Data("d", 8)
	f := b.Func("f")
	f.LdData(guest.R1, "d", 0)
	f.Ret()
	if _, err := b.BuildLibrary(0x7f00_0000_0000); err == nil {
		t.Fatal("library data relocation must fail")
	}
}

func TestFuncBuilderLen(t *testing.T) {
	b := NewBuilder("len")
	f := b.Func("main")
	if f.Len() != 0 {
		t.Fatal("fresh function not empty")
	}
	f.Nop()
	f.Halt()
	if f.Len() != 2 {
		t.Fatalf("len %d", f.Len())
	}
	// Func returns the same builder for the same name.
	if b.Func("main") != f {
		t.Fatal("Func not idempotent")
	}
}

func TestEmptyProgramFails(t *testing.T) {
	b := NewBuilder("empty")
	if _, err := b.Build(); err == nil {
		t.Fatal("empty program must fail")
	}
}

// TestSectionLayoutMismatchRefused: a builder builds over a pre-generated
// section only if the section came from the same data layout — base,
// symbol names, offsets and sizes, and where each initialised symbol's
// words sit — and then aliases its pages without calling a generator.
// Any other layout is an error, not an executable over foreign data.
func TestSectionLayoutMismatchRefused(t *testing.T) {
	declare := func(b *Builder) {
		b.DataWords("a", 4, func(i int) uint64 { return uint64(i) + 1 })
		b.Data("z", 16)
		b.DataI64("c", []int64{7, 8})
		b.Func("main").Halt()
	}
	gen := NewBuilder("gen")
	declare(gen)
	sec := gen.Section()

	same := NewBuilder("same")
	same.DataWords("a", 4, func(int) uint64 { panic("generator called over a shared section") })
	same.Data("z", 16)
	same.DataI64("c", []int64{7, 8})
	same.Func("main").Halt()
	exe, err := same.BuildOver(sec)
	if err != nil {
		t.Fatalf("same layout refused: %v", err)
	}
	own, err := gen.Build()
	if err != nil {
		t.Fatal(err)
	}
	if exe.Section != sec.sec {
		t.Fatal("BuildOver copied the section")
	}
	if !bytes.Equal(sectionBytes(exe.Section), sectionBytes(own.Section)) {
		t.Fatal("shared section differs from the generating builder's own build")
	}

	for name, mk := range map[string]func(b *Builder){
		"symbol name": func(b *Builder) {
			b.DataWords("A", 4, func(i int) uint64 { return 0 })
			b.Data("z", 16)
			b.DataI64("c", []int64{7, 8})
		},
		"symbol size": func(b *Builder) {
			b.DataWords("a", 4, func(i int) uint64 { return 0 })
			b.Data("z", 24)
			b.DataI64("c", []int64{7, 8})
		},
		"symbol order": func(b *Builder) {
			b.Data("z", 16)
			b.DataWords("a", 4, func(i int) uint64 { return 0 })
			b.DataI64("c", []int64{7, 8})
		},
		"chunk offset": func(b *Builder) {
			// Same symbols, offsets and sizes; "z" is initialised
			// and "a" is not, so the words sit elsewhere.
			b.Data("a", 32)
			b.DataWords("z", 2, func(i int) uint64 { return 0 })
			b.DataI64("c", []int64{7, 8})
		},
		"extra symbol": func(b *Builder) {
			declare(b)
			b.Data("tail", 8)
		},
	} {
		b := NewBuilder("other")
		mk(b)
		b.Func("main").Halt()
		if exe, err := b.BuildOver(sec); err == nil || exe != nil {
			t.Errorf("%s: a section of another layout was accepted", name)
		}
	}
}

// TestSectionMakesOnlyInitialisedPages: a 1 MiB reservation and one
// page of words yield a section that holds that one page — the
// reservation costs no bytes, like .bss — and the executable's
// Fingerprint equals that of the same executable over a section written
// out byte for byte. Words that straddle a page boundary, at an offset
// no page or word boundary aligns, land in both pages.
func TestSectionMakesOnlyInitialisedPages(t *testing.T) {
	const words = obj.PageSize / 8
	b := NewBuilder("sparse")
	b.Data("bss", 1<<20)
	w := b.DataWords("w", words, func(i int) uint64 { return uint64(i) | 1<<63 })
	b.Func("main").Halt()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sec := b.Section()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16<<10 {
		t.Errorf("generating a %d-byte section with one page of words allocated %d bytes", 1<<20+obj.PageSize, got)
	}
	exe, err := b.BuildOver(sec)
	if err != nil {
		t.Fatal(err)
	}
	present := 0
	for _, p := range exe.Section.Pages {
		if p != nil {
			present++
		}
	}
	if present != 1 || exe.Section.Pages[(w-exe.Section.Base)/obj.PageSize] == nil {
		t.Fatalf("section holds %d of its %d pages, want only the words' page", present, len(exe.Section.Pages))
	}
	dense := make([]byte, exe.Section.Size)
	for i := range words {
		binary.LittleEndian.PutUint64(dense[w-exe.Section.Base+uint64(i)*8:], uint64(i)|1<<63)
	}
	ref := &obj.Executable{Name: exe.Name, Entry: exe.Entry, CodeBase: exe.CodeBase, Code: exe.Code,
		Section: obj.NewSection(exe.Section.Base, exe.Section.Size), Symbols: exe.Symbols, Imports: exe.Imports}
	ref.Section.WriteAt(dense, 0)
	if exe.Fingerprint() != ref.Fingerprint() || exe.Size() != ref.Size() {
		t.Fatal("the sparse section does not fingerprint as its dense bytes")
	}

	b = NewBuilder("straddle")
	b.Data("pad", obj.PageSize-12)
	w = b.DataWords("w", 3, func(i int) uint64 { return 0x0807060504030201 * uint64(i+1) })
	b.Func("main").Halt()
	exe, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data := sectionBytes(exe.Section)
	for i := range uint64(3) {
		if got := binary.LittleEndian.Uint64(data[w-exe.Section.Base+8*i:]); got != 0x0807060504030201*(i+1) {
			t.Errorf("word %d reads %#x", i, got)
		}
	}
}

// TestEncodedFuncSplicesSameBytes: a function defined already encoded
// lays out, resolves calls and fingerprints exactly as the same
// instructions emitted one by one, and one encoding serves any number
// of builders.
func TestEncodedFuncSplicesSameBytes(t *testing.T) {
	body := []guest.Inst{
		guest.NewInstI(guest.ADDI, guest.R0, 3),
		guest.NewInst(guest.XOR, guest.R1, guest.R2),
		{Op: guest.RET, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem},
	}
	text := guest.EncodeAll(body)
	build := func(encoded bool) *obj.Executable {
		b := NewBuilder("splice")
		b.Func("main").Call("helper").Call("tail").Halt()
		if encoded {
			b.EncodedFunc("helper", text)
		} else {
			f := b.Func("helper")
			for _, in := range body {
				f.I(in)
			}
		}
		b.Func("tail").Ret()
		exe, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return exe
	}
	want := build(false)
	for range 2 {
		if got := build(true); !bytes.Equal(got.Code, want.Code) || got.Fingerprint() != want.Fingerprint() {
			t.Fatal("an encoded function laid out differently from the same instructions emitted")
		}
	}
	b := NewBuilder("misuse")
	b.Func("helper").Ret()
	for name, code := range map[string][]byte{"helper": text, "ragged": text[:5]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EncodedFunc(%q, %d bytes) did not panic", name, len(code))
				}
			}()
			b.EncodedFunc(name, code)
		}()
	}
}

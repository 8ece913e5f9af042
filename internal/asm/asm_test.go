package asm

import (
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
	if got := exe.Data[a2-obj.DefaultDataBase]; got != 1 {
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
	if len(exe.Data) != 3*8+40+2*8 {
		t.Fatalf("data section is %d bytes", len(exe.Data))
	}
	word := func(addr uint64) uint64 {
		return binary.LittleEndian.Uint64(exe.Data[addr-exe.DataBase:])
	}
	if word(w1) != 10 || word(w1+16) != 12 || word(w2) != ^uint64(0) || word(w2+8) != ^uint64(1) {
		t.Fatal("DataWords values are not at their symbols")
	}
	for _, c := range exe.Data[z-exe.DataBase : z-exe.DataBase+40] {
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
		t.Errorf("Build allocated %d bytes for a %d-byte section: the section was written more than once", got, len(exe.Data))
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "tail" {
		t.Errorf("generators ran as %v, want each once in declaration order", order)
	}
	if got := binary.LittleEndian.Uint64(exe.Data[vi-exe.DataBase:]); got != 5 {
		t.Errorf("DataI64 read its slice at Build: first value %d, want 5", got)
	}
	if got := binary.LittleEndian.Uint64(exe.Data[(words-1)*8:]); got != words-1 {
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
// words sit — and then aliases its bytes without calling a generator.
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
	if &exe.Data[0] != &sec.sec.Bytes[0] || exe.DataSection() != sec.sec {
		t.Fatal("BuildOver copied the section")
	}
	if string(exe.Data) != string(own.Data) {
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

package obj

import (
	"bytes"
	"testing"

	"janus/internal/guest"
)

// sectionOf returns a section holding data at base.
func sectionOf(base uint64, data []byte) *Section {
	s := NewSection(base, uint64(len(data)))
	s.WriteAt(data, 0)
	return s
}

func sampleExe() *Executable {
	code := guest.EncodeAll([]guest.Inst{
		guest.NewInstI(guest.MOVI, guest.R1, 7),
		{Op: guest.RET, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem},
		guest.NewInstI(guest.JMP, guest.RegNone, 0), // PLT stub
	})
	return &Executable{
		Name:     "sample",
		Entry:    DefaultCodeBase,
		CodeBase: DefaultCodeBase,
		Code:     code,
		Section:  sectionOf(DefaultDataBase, []byte{1, 2, 3, 4}),
		Symbols: []Symbol{
			{Name: "main", Addr: DefaultCodeBase, Size: 2 * guest.InstSize, Kind: SymFunc},
			{Name: "tab", Addr: DefaultDataBase, Size: 4, Kind: SymData},
		},
		Imports: []Import{{Name: "pow", PLT: DefaultCodeBase + 2*guest.InstSize}},
	}
}

func TestSectionPredicates(t *testing.T) {
	e := sampleExe()
	if !e.InCode(e.Entry) || e.InCode(e.CodeEnd()) {
		t.Fatal("InCode boundaries wrong")
	}
	if e.Section.End() != DefaultDataBase+4 {
		t.Fatal("section End wrong")
	}
	if e.Size() != len(e.Code)+4 {
		t.Fatal("Size wrong")
	}
}

func TestInstAt(t *testing.T) {
	e := sampleExe()
	in, err := e.InstAt(e.Entry)
	if err != nil || in.Op != guest.MOVI {
		t.Fatalf("InstAt entry: %v %v", in, err)
	}
	if _, err := e.InstAt(e.Entry + 1); err == nil {
		t.Fatal("misaligned InstAt must fail")
	}
	if _, err := e.InstAt(0xdead0000); err == nil {
		t.Fatal("out-of-section InstAt must fail")
	}
}

func TestSymbolLookups(t *testing.T) {
	e := sampleExe()
	if s, ok := e.SymbolByName("main"); !ok || s.Kind != SymFunc {
		t.Fatal("SymbolByName main")
	}
	if _, ok := e.SymbolByName("ghost"); ok {
		t.Fatal("phantom symbol")
	}
	fns := e.FuncSymbols()
	if len(fns) != 1 || fns[0].Name != "main" {
		t.Fatalf("FuncSymbols: %v", fns)
	}
	if im, ok := e.ImportAt(DefaultCodeBase + 2*guest.InstSize); !ok || im.Name != "pow" {
		t.Fatal("ImportAt")
	}
}

func TestStripKeepsDynamicInfo(t *testing.T) {
	e := sampleExe()
	st := e.Strip()
	if !st.Stripped || len(st.Symbols) != 0 {
		t.Fatal("symbols survive strip")
	}
	// Stripped binaries keep entry, sections, and imports (dynamic
	// symbol information survives stripping in real ELF too).
	if st.Entry != e.Entry || len(st.Imports) != 1 {
		t.Fatal("strip lost dynamic info")
	}
	// Strip shares the sections instead of copying them: executables are
	// immutable after construction (the contract the loader's mapped
	// image and every pointer-keyed cache rest on), so a copy per build
	// would buy nothing.
	if &st.Code[0] != &e.Code[0] || st.Section != e.Section {
		t.Fatal("strip copied a section")
	}
	// The loader's once-built image belongs to the executable it was
	// built from and must not follow the stripped view.
	type img struct{ of *Executable }
	if got := e.Loaded(func() any { return &img{e} }).(*img); got.of != e {
		t.Fatal("Loaded did not build")
	}
	if got := e.Loaded(func() any { return &img{nil} }).(*img); got.of != e {
		t.Fatal("Loaded built twice")
	}
	if got := e.Strip().Loaded(func() any { return &img{st} }).(*img); got.of != st {
		t.Fatal("strip carried the loaded image across")
	}
}

func TestLibraryLookups(t *testing.T) {
	lib := &Library{
		Name: "libm", Base: DefaultLibBase,
		Code:    make([]byte, 3*guest.InstSize),
		Symbols: []Symbol{{Name: "pow", Addr: DefaultLibBase, Size: 2 * guest.InstSize, Kind: SymFunc}},
	}
	if s, ok := lib.SymbolByName("pow"); !ok || s.Addr != DefaultLibBase {
		t.Fatal("library symbol lookup")
	}
	if !lib.InCode(DefaultLibBase) || lib.InCode(DefaultLibBase+3*guest.InstSize) {
		t.Fatal("library InCode bounds")
	}
}

// TestSectionPages: a section holds the pages its writes land in and no
// other, a write may straddle pages and an unaligned base, and WriteTo
// streams exactly Size bytes with absent pages as zeros.
func TestSectionPages(t *testing.T) {
	const base = DefaultDataBase + 8
	s := NewSection(base, 5*PageSize)
	if len(s.Pages) != 6 {
		t.Fatalf("a %d-byte section at %#x covers %d pages, want 6", s.Size, s.Base, len(s.Pages))
	}
	want := make([]byte, s.Size)
	for _, w := range []struct {
		off  int64
		data []byte
	}{{0, []byte{1}}, {PageSize - 12, []byte{2, 3, 4, 5, 6, 7, 8, 9}}, {5*PageSize - 1, []byte{10}}} {
		if n, err := s.WriteAt(w.data, w.off); n != len(w.data) || err != nil {
			t.Fatalf("WriteAt(%d bytes, %d) = %d, %v", len(w.data), w.off, n, err)
		}
		copy(want[w.off:], w.data)
	}
	if _, err := s.WriteAt([]byte{1}, 5*PageSize); err == nil {
		t.Fatal("a write past the section's end succeeded")
	}
	var present []int
	for i, p := range s.Pages {
		if p != nil {
			present = append(present, i)
		}
	}
	if len(present) != 3 || present[0] != 0 || present[1] != 1 || present[2] != 5 {
		t.Fatalf("pages %v present, want [0 1 5]", present)
	}
	if s.Pages[0][7] != 0 || s.Pages[0][8] != 1 {
		t.Fatal("the first byte did not land at the section's unaligned base")
	}
	var got bytes.Buffer
	if n, err := s.WriteTo(&got); n != int64(s.Size) || err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteTo streamed %d bytes (%v), equal to the writes: %v", n, err, bytes.Equal(got.Bytes(), want))
	}
}

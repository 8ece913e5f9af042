package obj

import (
	"testing"

	"janus/internal/guest"
)

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
		DataBase: DefaultDataBase,
		Data:     []byte{1, 2, 3, 4},
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
	if e.DataEnd() != DefaultDataBase+4 {
		t.Fatal("DataEnd wrong")
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
	// image and every pointer-keyed cache rest on), so a second ~10 MB
	// copy per build would buy nothing. This used to assert a deep copy;
	// nothing ever wrote to one.
	if &st.Code[0] != &e.Code[0] || &st.Data[0] != &e.Data[0] {
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

func TestSaveLoadFull(t *testing.T) {
	e := sampleExe()
	back, err := Load(e.Save())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != e.Name || back.Entry != e.Entry {
		t.Fatal("header mismatch")
	}
	if len(back.Symbols) != 2 || len(back.Imports) != 1 {
		t.Fatalf("tables mismatch: %d syms %d imports", len(back.Symbols), len(back.Imports))
	}
	if back.Symbols[0] != e.Symbols[0] || back.Imports[0] != e.Imports[0] {
		t.Fatal("entries mismatch")
	}
}

func TestLoadTruncationsFail(t *testing.T) {
	img := sampleExe().Save()
	for _, n := range []int{0, 4, 8, 20, len(img) / 2, len(img) - 1} {
		if _, err := Load(img[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
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

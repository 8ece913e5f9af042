// Package asm provides a programmatic assembler for guest programs: it
// lays out functions, binds labels, resolves calls and data references,
// and emits obj.Executable images. The workload generators use it to
// build the SPEC-like benchmark binaries.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"janus/internal/guest"
	"janus/internal/obj"
)

// Label identifies a branch target inside one function.
type Label int

// relocKind says which field of an instruction needs patching at layout
// time and with what.
type relocKind uint8

const (
	relocNone  relocKind = iota
	relocLabel           // Imm <- address of label
	relocFunc            // Imm <- address of function or PLT stub
	relocDataI           // Imm <- address of data symbol (+addend)
	relocDataM           // M.Disp <- address of data symbol (+addend)
)

type item struct {
	inst   guest.Inst
	kind   relocKind
	label  Label
	sym    string
	addend int64
}

// FuncBuilder accumulates the instructions of one function.
type FuncBuilder struct {
	name   string
	items  []item
	labels []int // label -> item index, -1 if unbound
	b      *Builder
	// code is the text of a function defined already encoded
	// (EncodedFunc), copied verbatim after items at layout.
	code []byte
}

// size returns the function's text size in bytes.
func (f *FuncBuilder) size() uint64 { return uint64(len(f.items)*guest.InstSize + len(f.code)) }

// dataChunk is one initialised data symbol: n words at off in the data
// section, word(i) at index i.
type dataChunk struct {
	off, n int
	word   func(i int) uint64
}

// chunkSpan is where a dataChunk sits, without its generator.
type chunkSpan struct{ off, n int }

// Section is a data section generated from one builder's declarations,
// together with the layout that generated it. Builders that declare
// the same layout — every optimisation level of one workload does —
// can build over one Section (BuildOver), so the section is generated
// once and all their executables alias its pages.
type Section struct {
	sec    *obj.Section
	syms   []obj.Symbol
	chunks []chunkSpan
}

// Builder accumulates a whole program.
type Builder struct {
	name     string
	codeBase uint64
	dataBase uint64
	funcs    []*FuncBuilder
	byName   map[string]*FuncBuilder
	// The data section is held as its length plus one generator per
	// initialised symbol; nothing holds bytes before Section, which
	// evaluates the generators in declaration order straight into the
	// pages they cover, so no byte is written twice and a page no
	// initialised symbol lands in is never made.
	dataLen    int
	dataChunks []dataChunk
	// built is set by Build, which hands the section pages to the
	// executable it returns.
	built     bool
	dataSyms  []obj.Symbol
	dataAddr  map[string]uint64
	imports   []string
	importSet map[string]bool
}

// NewBuilder starts a program named name at the default load addresses.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:      name,
		codeBase:  obj.DefaultCodeBase,
		dataBase:  obj.DefaultDataBase,
		byName:    map[string]*FuncBuilder{},
		dataAddr:  map[string]uint64{},
		importSet: map[string]bool{},
	}
}

// Func begins (or returns the existing) function fn. The first function
// defined is the program entry point.
func (b *Builder) Func(name string) *FuncBuilder {
	if f, ok := b.byName[name]; ok {
		return f
	}
	f := &FuncBuilder{name: name, b: b}
	b.funcs = append(b.funcs, f)
	b.byName[name] = f
	return f
}

// Import declares an external function reached via a PLT stub.
func (b *Builder) Import(name string) {
	if !b.importSet[name] {
		b.importSet[name] = true
		b.imports = append(b.imports, name)
	}
}

// Data reserves size bytes of zeroed data under name and returns its
// virtual address.
func (b *Builder) Data(name string, size int) uint64 {
	addr := b.dataBase + uint64(b.dataLen)
	b.dataLen += size
	b.dataSyms = append(b.dataSyms, obj.Symbol{Name: name, Addr: addr, Size: uint64(size), Kind: obj.SymData})
	b.dataAddr[name] = addr
	return addr
}

// DataWords emits an array of n little-endian 64-bit words, word(i) at
// index i. word is kept and called by Build — once per index, symbols
// in declaration order — so it must be a pure function of i over values
// fixed when DataWords returns.
func (b *Builder) DataWords(name string, n int, word func(i int) uint64) uint64 {
	b.dataChunks = append(b.dataChunks, dataChunk{off: b.dataLen, n: n, word: word})
	return b.Data(name, n*8)
}

// DataF64 emits a float64 array initialised with a copy of vals.
func (b *Builder) DataF64(name string, vals []float64) uint64 {
	vals = slices.Clone(vals)
	return b.DataWords(name, len(vals), func(i int) uint64 { return math.Float64bits(vals[i]) })
}

// DataI64 emits an int64 array initialised with a copy of vals.
func (b *Builder) DataI64(name string, vals []int64) uint64 {
	vals = slices.Clone(vals)
	return b.DataWords(name, len(vals), func(i int) uint64 { return uint64(vals[i]) })
}

// DataAddr returns the address of a previously defined data symbol.
func (b *Builder) DataAddr(name string) uint64 { return b.dataAddr[name] }

// EncodedFunc defines the function name as code already encoded: whole
// instructions that reference nothing (no label, call or data
// relocation), so their bytes are the same at any address. code is
// copied into the code section at layout and never written, so one
// encoding may define functions in any number of builders. It panics if
// name is already defined or code is not whole instructions.
func (b *Builder) EncodedFunc(name string, code []byte) {
	if _, ok := b.byName[name]; ok || len(code)%guest.InstSize != 0 {
		panic(fmt.Sprintf("asm: EncodedFunc %q: defined twice or %d bytes of code", name, len(code)))
	}
	b.Func(name).code = code
}

// NewLabel creates an unbound label.
func (f *FuncBuilder) NewLabel() Label {
	f.labels = append(f.labels, -1)
	return Label(len(f.labels) - 1)
}

// Bind attaches l to the next emitted instruction.
func (f *FuncBuilder) Bind(l Label) {
	f.labels[l] = len(f.items)
}

// emit appends a raw item.
func (f *FuncBuilder) emit(it item) *FuncBuilder {
	f.items = append(f.items, it)
	return f
}

// I emits an arbitrary instruction verbatim.
func (f *FuncBuilder) I(in guest.Inst) *FuncBuilder { return f.emit(item{inst: in}) }

// Mov emits rd <- rs.
func (f *FuncBuilder) Mov(rd, rs guest.Reg) *FuncBuilder {
	return f.I(guest.NewInst(guest.MOV, rd, rs))
}

// Movi emits rd <- imm.
func (f *FuncBuilder) Movi(rd guest.Reg, imm int64) *FuncBuilder {
	return f.I(guest.NewInstI(guest.MOVI, rd, imm))
}

// MoviF emits rd <- float64 bit pattern of v.
func (f *FuncBuilder) MoviF(rd guest.Reg, v float64) *FuncBuilder {
	return f.I(guest.NewInstI(guest.MOVI, rd, int64(math.Float64bits(v))))
}

// MoviData emits rd <- address of data symbol sym + addend.
func (f *FuncBuilder) MoviData(rd guest.Reg, sym string, addend int64) *FuncBuilder {
	return f.emit(item{inst: guest.NewInstI(guest.MOVI, rd, 0), kind: relocDataI, sym: sym, addend: addend})
}

// Ld emits rd <- [m].
func (f *FuncBuilder) Ld(rd guest.Reg, m guest.Mem) *FuncBuilder {
	return f.I(guest.NewInstM(guest.LD, rd, m))
}

// St emits [m] <- rs.
func (f *FuncBuilder) St(m guest.Mem, rs guest.Reg) *FuncBuilder {
	return f.I(guest.NewInstM(guest.ST, rs, m))
}

// LdData emits rd <- [sym+addend], an absolute-addressed load.
func (f *FuncBuilder) LdData(rd guest.Reg, sym string, addend int64) *FuncBuilder {
	in := guest.NewInstM(guest.LD, rd, guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1})
	return f.emit(item{inst: in, kind: relocDataM, sym: sym, addend: addend})
}

// StData emits [sym+addend] <- rs.
func (f *FuncBuilder) StData(sym string, addend int64, rs guest.Reg) *FuncBuilder {
	in := guest.NewInstM(guest.ST, rs, guest.Mem{Base: guest.RegNone, Index: guest.RegNone, Scale: 1})
	return f.emit(item{inst: in, kind: relocDataM, sym: sym, addend: addend})
}

// Lea emits rd <- &m.
func (f *FuncBuilder) Lea(rd guest.Reg, m guest.Mem) *FuncBuilder {
	return f.I(guest.NewInstM(guest.LEA, rd, m))
}

// Op emits a two-register ALU instruction.
func (f *FuncBuilder) Op(op guest.Op, rd, rs guest.Reg) *FuncBuilder {
	return f.I(guest.NewInst(op, rd, rs))
}

// OpI emits an ALU instruction with immediate.
func (f *FuncBuilder) OpI(op guest.Op, rd guest.Reg, imm int64) *FuncBuilder {
	return f.I(guest.NewInstI(op, rd, imm))
}

// Cmp emits flags <- compare(ra, rb).
func (f *FuncBuilder) Cmp(ra, rb guest.Reg) *FuncBuilder {
	return f.I(guest.NewInst(guest.CMP, ra, rb))
}

// Cmpi emits flags <- compare(ra, imm).
func (f *FuncBuilder) Cmpi(ra guest.Reg, imm int64) *FuncBuilder {
	return f.I(guest.NewInstI(guest.CMPI, ra, imm))
}

// J emits a branch (JMP or conditional) to label l.
func (f *FuncBuilder) J(op guest.Op, l Label) *FuncBuilder {
	return f.emit(item{inst: guest.NewInstI(op, guest.RegNone, 0), kind: relocLabel, label: l})
}

// Call emits a call to the named function (local or imported).
func (f *FuncBuilder) Call(name string) *FuncBuilder {
	return f.emit(item{inst: guest.NewInstI(guest.CALL, guest.RegNone, 0), kind: relocFunc, sym: name})
}

// Ret emits a return.
func (f *FuncBuilder) Ret() *FuncBuilder {
	return f.I(guest.Inst{Op: guest.RET, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem})
}

// Push and Pop manage the stack.
func (f *FuncBuilder) Push(rs guest.Reg) *FuncBuilder {
	return f.I(guest.Inst{Op: guest.PUSH, Rd: guest.RegNone, Rs: rs, M: guest.NoMem})
}

// Pop emits rd <- [sp++].
func (f *FuncBuilder) Pop(rd guest.Reg) *FuncBuilder {
	return f.I(guest.Inst{Op: guest.POP, Rd: rd, Rs: guest.RegNone, M: guest.NoMem})
}

// Syscall emits a syscall; the number must already be in R0.
func (f *FuncBuilder) Syscall() *FuncBuilder {
	return f.I(guest.Inst{Op: guest.SYSCALL, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem})
}

// Halt stops the machine.
func (f *FuncBuilder) Halt() *FuncBuilder {
	return f.I(guest.Inst{Op: guest.HALT, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem})
}

// Nop emits a no-op.
func (f *FuncBuilder) Nop() *FuncBuilder {
	return f.I(guest.Inst{Op: guest.NOP, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem})
}

// Len returns the number of instructions emitted so far.
func (f *FuncBuilder) Len() int { return len(f.items) }

// Section evaluates the builder's data generators — symbols in
// declaration order, one call per index — straight into the pages of a
// new section, a page at a time, and records the layout it came from.
// Only pages an initialised symbol lands in are made; the rest of the
// section, reserved by Data alone, stays absent.
func (b *Builder) Section() *Section {
	sec := obj.NewSection(b.dataBase, uint64(b.dataLen))
	spans := make([]chunkSpan, len(b.dataChunks))
	var buf [obj.PageSize]byte
	for i, c := range b.dataChunks {
		for j := 0; j < c.n; {
			off := c.off + j*8
			room := obj.PageSize - int((b.dataBase+uint64(off))%obj.PageSize)
			k := min(c.n-j, max(1, room/8))
			for w := range k {
				binary.LittleEndian.PutUint64(buf[w*8:], c.word(j+w))
			}
			// Data reserved every chunk inside the section, so the
			// write cannot fail.
			sec.WriteAt(buf[:k*8], int64(off))
			j += k
		}
		spans[i] = chunkSpan{off: c.off, n: c.n}
	}
	return &Section{sec: sec, syms: slices.Clone(b.dataSyms), chunks: spans}
}

// sameLayout reports whether sec was generated from exactly b's data
// declarations: base, symbol names, offsets and sizes, and where each
// initialised symbol's words sit.
func (b *Builder) sameLayout(sec *Section) bool {
	if sec.sec.Base != b.dataBase || sec.sec.Size != uint64(b.dataLen) || !slices.Equal(sec.syms, b.dataSyms) || len(sec.chunks) != len(b.dataChunks) {
		return false
	}
	for i, c := range b.dataChunks {
		if sec.chunks[i] != (chunkSpan{off: c.off, n: c.n}) {
			return false
		}
	}
	return true
}

// Build lays out all functions and the PLT, resolves relocations and
// returns the finished executable over a data section of its own
// (Section). The section belongs to the executable from then on
// (executables are immutable, and the loader maps these very pages into
// every machine), so a builder builds one executable: a second Build is
// an error.
func (b *Builder) Build() (*obj.Executable, error) {
	if b.built {
		return nil, fmt.Errorf("asm: program %q was already built", b.name)
	}
	return b.BuildOver(b.Section())
}

// BuildOver is Build over sec instead of a freshly generated section:
// the executable aliases sec's pages and shares the loader's view of
// them with every other executable built over sec. sec must have been
// generated from a data layout equal to b's (Section); otherwise
// BuildOver returns an error. b's own generators are never called.
func (b *Builder) BuildOver(sec *Section) (*obj.Executable, error) {
	if b.built {
		return nil, fmt.Errorf("asm: program %q was already built", b.name)
	}
	if !b.sameLayout(sec) {
		return nil, fmt.Errorf("asm: program %q: data section was generated from another layout", b.name)
	}
	// Assign addresses: functions in definition order, then PLT stubs.
	funcAddr := map[string]uint64{}
	addr := b.codeBase
	for _, f := range b.funcs {
		funcAddr[f.name] = addr
		addr += f.size()
	}
	pltAddr := map[string]uint64{}
	var imports []obj.Import
	for _, name := range b.imports {
		pltAddr[name] = addr
		imports = append(imports, obj.Import{Name: name, PLT: addr})
		addr += guest.InstSize
	}

	code := make([]byte, 0, addr-b.codeBase)
	var symbols []obj.Symbol
	for _, f := range b.funcs {
		base := funcAddr[f.name]
		symbols = append(symbols, obj.Symbol{Name: f.name, Addr: base, Size: f.size(), Kind: obj.SymFunc})
		for _, it := range f.items {
			in := it.inst
			switch it.kind {
			case relocLabel:
				bound := f.labels[it.label]
				if bound < 0 {
					return nil, fmt.Errorf("asm: %s: unbound label %d", f.name, it.label)
				}
				in.Imm = int64(base + uint64(bound*guest.InstSize))
			case relocFunc:
				if a, ok := funcAddr[it.sym]; ok {
					in.Imm = int64(a)
				} else if a, ok := pltAddr[it.sym]; ok {
					in.Imm = int64(a)
				} else {
					return nil, fmt.Errorf("asm: %s: call to undefined function %q", f.name, it.sym)
				}
			case relocDataI:
				a, ok := b.dataAddr[it.sym]
				if !ok {
					return nil, fmt.Errorf("asm: %s: reference to undefined data %q", f.name, it.sym)
				}
				in.Imm = int64(a) + it.addend
			case relocDataM:
				a, ok := b.dataAddr[it.sym]
				if !ok {
					return nil, fmt.Errorf("asm: %s: reference to undefined data %q", f.name, it.sym)
				}
				in.M.Disp = int64(a) + it.addend
			}
			eb := guest.Encode(in)
			code = append(code, eb[:]...)
		}
		code = append(code, f.code...)
	}
	// PLT stubs: a single JMP each; target patched by the loader.
	for range b.imports {
		eb := guest.Encode(guest.NewInstI(guest.JMP, guest.RegNone, 0))
		code = append(code, eb[:]...)
	}
	symbols = append(symbols, b.dataSyms...)

	if len(b.funcs) == 0 {
		return nil, fmt.Errorf("asm: program %q has no functions", b.name)
	}
	entry := funcAddr[b.funcs[0].name]
	if f, ok := b.byName["main"]; ok {
		entry = funcAddr[f.name]
	}
	b.built, b.dataChunks = true, nil
	return &obj.Executable{
		Name:     b.name,
		Entry:    entry,
		CodeBase: b.codeBase,
		Code:     code,
		Section:  sec.sec,
		Symbols:  symbols,
		Imports:  imports,
	}, nil
}

// BuildLibrary assembles a shared library from the builder's functions.
// Data sections are not supported in libraries.
func (b *Builder) BuildLibrary(base uint64) (*obj.Library, error) {
	funcAddr := map[string]uint64{}
	addr := base
	for _, f := range b.funcs {
		funcAddr[f.name] = addr
		addr += f.size()
	}
	var code []byte
	var symbols []obj.Symbol
	for _, f := range b.funcs {
		fbase := funcAddr[f.name]
		symbols = append(symbols, obj.Symbol{Name: f.name, Addr: fbase, Size: f.size(), Kind: obj.SymFunc})
		for _, it := range f.items {
			in := it.inst
			switch it.kind {
			case relocLabel:
				bound := f.labels[it.label]
				if bound < 0 {
					return nil, fmt.Errorf("asm: lib %s: unbound label", f.name)
				}
				in.Imm = int64(fbase + uint64(bound*guest.InstSize))
			case relocFunc:
				a, ok := funcAddr[it.sym]
				if !ok {
					return nil, fmt.Errorf("asm: lib %s: undefined function %q", f.name, it.sym)
				}
				in.Imm = int64(a)
			case relocDataI, relocDataM:
				return nil, fmt.Errorf("asm: lib %s: data relocations unsupported in libraries", f.name)
			}
			eb := guest.Encode(in)
			code = append(code, eb[:]...)
		}
		code = append(code, f.code...)
	}
	return &obj.Library{Name: b.name, Base: base, Code: code, Symbols: symbols}, nil
}

// Package obj defines the executable and shared-library formats for
// guest programs: a code section of fixed-width encoded instructions, a
// data section, a symbol table, and an import table backed by PLT stubs.
//
// The format plays the role ELF plays in the paper. The static analyser
// consumes only the byte image plus the dynamic-symbol information that
// even stripped ELF binaries retain (section bounds, entry point, PLT
// import names); the full symbol table is optional, so analysis of
// stripped binaries is exercised directly.
package obj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"

	"janus/internal/guest"
)

// Default load addresses, deliberately echoing common x86-64 layouts.
const (
	DefaultCodeBase = 0x400000
	DefaultDataBase = 0x600000
	// DefaultStackTop is where the main thread stack begins (grows down).
	DefaultStackTop = 0x7fff_ffff_e000
	// DefaultHeapBase is where SysAlloc carves allocations from.
	DefaultHeapBase = 0x10_0000_0000
	// DefaultLibBase is where the first shared library is mapped.
	DefaultLibBase = 0x7f00_0000_0000
)

// SymKind classifies a symbol.
type SymKind uint8

const (
	SymFunc SymKind = iota
	SymData
)

// Symbol names an address range in a section.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Kind SymKind
}

// Import is an external function reached through a PLT stub. The stub at
// PLT is a single JMP whose target the loader patches to the resolved
// library symbol.
type Import struct {
	Name string
	PLT  uint64
}

// Section is one data section: its load address and bytes, plus the
// loader's view of them (see Loaded). Several executables may alias one
// section — every optimisation level of one (benchmark, input) does
// (asm.Builder.BuildOver) — and then share what the loader derives from
// it. A section is immutable and, like an Executable, must not be
// copied by value.
type Section struct {
	Base  uint64
	Bytes []byte

	loadOnce sync.Once
	loaded   any
}

// Loaded returns the loader's view of s: the value build returned on
// the first call, built at most once however many machines load an
// executable over s concurrently. It lives exactly as long as s.
func (s *Section) Loaded(build func() any) any {
	s.loadOnce.Do(func() { s.loaded = build() })
	return s.loaded
}

// Executable is a loadable guest program image.
//
// An executable is immutable once constructed: nothing may write to
// Code, Data, Symbols or Imports afterwards. Every consumer relies on
// it — the memoised identity (Binary), the pointer-keyed stage caches,
// and the loader, which maps Data's bytes into every machine it loads
// instead of copying them (vm.NewMachine). Because it carries
// once-built derived state, an Executable must not be copied by value.
type Executable struct {
	Name     string
	Entry    uint64
	CodeBase uint64
	Code     []byte
	DataBase uint64
	Data     []byte
	Symbols  []Symbol // empty when stripped
	Imports  []Import
	// Stripped marks that Symbols carries no local function names; the
	// analyser must recover functions from the entry point and call
	// targets alone.
	Stripped bool

	// section is the data section Data and DataBase alias: shared with
	// other executables when set at construction (ShareSection), made
	// private to this executable on first use otherwise (DataSection).
	sectionOnce sync.Once
	section     *Section
	// decoded is the code section decoded once (Decoded).
	decodeOnce sync.Once
	decoded    *Decoded
	// loaded is what the loader linked from the code the first time
	// this executable was loaded (see Loaded). It belongs to this
	// executable alone and is collected with it.
	loadOnce sync.Once
	loaded   any
}

// ShareSection makes s e's data section: Data and DataBase become s's,
// and every executable sharing s shares the loader's view of it. It is
// part of construction and must precede any other use of e.
func (e *Executable) ShareSection(s *Section) {
	e.section, e.DataBase, e.Data = s, s.Base, s.Bytes
}

// DataSection returns e's data section: the shared one if e was built
// over one (ShareSection), otherwise a section private to e, made on
// first use — the behaviour of an executable that shares nothing.
func (e *Executable) DataSection() *Section {
	e.sectionOnce.Do(func() {
		if e.section == nil {
			e.section = &Section{Base: e.DataBase, Bytes: e.Data}
		}
	})
	return e.section
}

// Loaded returns the loader's linked view of e's code: the value build
// returned on the first call, built at most once however many machines
// load e concurrently. The value lives exactly as long as e, so a
// process that drops an executable drops it with it.
func (e *Executable) Loaded(build func() any) any {
	e.loadOnce.Do(func() { e.loaded = build() })
	return e.loaded
}

// Decoded is an executable's code section decoded once and shared by
// every reader (the loader, the CFG builder, disassembly): nothing may
// write to it.
type Decoded struct {
	// Insts[i] is the instruction at CodeBase + i*guest.InstSize when
	// OK[i]; an undecodable slot is zero and not OK. A ragged trailing
	// fragment has no slot.
	Insts []guest.Inst
	OK    []bool
	// Err is what guest.DecodeAll reports for the section: nil exactly
	// when every slot decodes and no fragment trails.
	Err error
}

// Decoded returns e's code section decoded, decoding it on first use.
func (e *Executable) Decoded() *Decoded {
	e.decodeOnce.Do(func() {
		n := len(e.Code) / guest.InstSize
		d := &Decoded{Insts: make([]guest.Inst, n), OK: make([]bool, n)}
		bad := len(e.Code)%guest.InstSize != 0
		for i := range n {
			in, err := guest.Decode(e.Code[i*guest.InstSize:])
			if err != nil {
				bad = true
				continue
			}
			d.Insts[i], d.OK[i] = in, true
		}
		if bad {
			_, d.Err = guest.DecodeAll(e.Code)
		}
		e.decoded = d
	})
	return e.decoded
}

// CodeEnd returns the first address past the code section.
func (e *Executable) CodeEnd() uint64 { return e.CodeBase + uint64(len(e.Code)) }

// DataEnd returns the first address past the data section.
func (e *Executable) DataEnd() uint64 { return e.DataBase + uint64(len(e.Data)) }

// InCode reports whether addr lies inside the code section.
func (e *Executable) InCode(addr uint64) bool {
	return addr >= e.CodeBase && addr < e.CodeEnd()
}

// Decode disassembles the full code section. Instruction i sits at
// address CodeBase + i*guest.InstSize. The slice is e's shared decoded
// form (Decoded): callers must not write to it.
func (e *Executable) Decode() ([]guest.Inst, error) {
	d := e.Decoded()
	if d.Err != nil {
		return nil, d.Err
	}
	return d.Insts, nil
}

// InstAt decodes the single instruction at addr.
func (e *Executable) InstAt(addr uint64) (guest.Inst, error) {
	if !e.InCode(addr) {
		return guest.Inst{}, fmt.Errorf("obj: address %#x outside code section", addr)
	}
	off := addr - e.CodeBase
	if off%guest.InstSize != 0 {
		return guest.Inst{}, fmt.Errorf("obj: address %#x not instruction-aligned", addr)
	}
	return guest.Decode(e.Code[off:])
}

// ImportAt returns the import whose PLT stub is at addr, if any.
func (e *Executable) ImportAt(addr uint64) (Import, bool) {
	for _, im := range e.Imports {
		if im.PLT == addr {
			return im, true
		}
	}
	return Import{}, false
}

// FuncSymbols returns the function symbols sorted by address.
func (e *Executable) FuncSymbols() []Symbol {
	var out []Symbol
	for _, s := range e.Symbols {
		if s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// SymbolByName finds a symbol by name.
func (e *Executable) SymbolByName(name string) (Symbol, bool) {
	for _, s := range e.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// Strip returns a stripped view of e: local function symbols removed,
// keeping only what a stripped dynamic binary retains — entry, section
// bounds, imports. The sections and the import table are shared with e,
// not copied: executables are immutable (see Executable), and a ~10 MB
// image per build is exactly the copy that contract exists to avoid.
// The result is built field by field: a shared data section follows it,
// but e's decoded and linked code do not — the stripped executable
// builds its own on first use.
func (e *Executable) Strip() *Executable {
	return &Executable{
		section:  e.section,
		Name:     e.Name,
		Entry:    e.Entry,
		CodeBase: e.CodeBase,
		Code:     e.Code,
		DataBase: e.DataBase,
		Data:     e.Data,
		Imports:  e.Imports,
		Stripped: true,
	}
}

// Size returns the total image size in bytes (code + data), the figure
// the paper normalises rewrite-schedule sizes against.
func (e *Executable) Size() int { return len(e.Code) + len(e.Data) }

// Library is a shared object mapped by the loader.
type Library struct {
	Name    string
	Base    uint64
	Code    []byte
	Symbols []Symbol
}

// SymbolByName finds an exported library symbol.
func (l *Library) SymbolByName(name string) (Symbol, bool) {
	for _, s := range l.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// InCode reports whether addr lies in the library's code.
func (l *Library) InCode(addr uint64) bool {
	return addr >= l.Base && addr < l.Base+uint64(len(l.Code))
}

const magic = "JEXE0001"

// encoder writes the canonical little-endian encoding that both
// Fingerprints hash. Its sink, a hash, never fails, so write errors are
// not carried.
type encoder struct {
	w   io.Writer
	tmp [8]byte
}

func (enc *encoder) u8(v byte) {
	enc.tmp[0] = v
	enc.w.Write(enc.tmp[:1])
}

func (enc *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(enc.tmp[:], v)
	enc.w.Write(enc.tmp[:])
}

func (enc *encoder) str(s string) {
	enc.u64(uint64(len(s)))
	io.WriteString(enc.w, s)
}

// section writes a mapped byte range: load address, length, bytes.
func (enc *encoder) section(base uint64, b []byte) {
	enc.u64(base)
	enc.u64(uint64(len(b)))
	enc.w.Write(b)
}

func (enc *encoder) symbols(syms []Symbol) {
	enc.u64(uint64(len(syms)))
	for _, s := range syms {
		enc.str(s.Name)
		enc.u64(s.Addr)
		enc.u64(s.Size)
		enc.u8(byte(s.Kind))
	}
}

// encode streams the executable's canonical image (magic, name, entry,
// sections, strip flag, symbols, imports) into w.
func (e *Executable) encode(w io.Writer) {
	enc := encoder{w: w}
	io.WriteString(w, magic)
	enc.str(e.Name)
	enc.u64(e.Entry)
	enc.section(e.CodeBase, e.Code)
	enc.section(e.DataBase, e.Data)
	if e.Stripped {
		enc.u8(1)
	} else {
		enc.u8(0)
	}
	enc.symbols(e.Symbols)
	enc.u64(uint64(len(e.Imports)))
	for _, im := range e.Imports {
		enc.str(im.Name)
		enc.u64(im.PLT)
	}
}

// encode streams the library's canonical encoding (name, base, code,
// symbol table) into w.
func (l *Library) encode(w io.Writer) {
	enc := encoder{w: w}
	enc.str(l.Name)
	enc.section(l.Base, l.Code)
	enc.symbols(l.Symbols)
}

// fingerprint hashes what encode streams, without materialising it.
func fingerprint(encode func(io.Writer)) string {
	h := sha256.New()
	encode(h)
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint returns the hex SHA-256 of the executable's canonical
// image, streamed into the hasher rather than built first: the
// content-address used by the durable artifact cache (internal/artcache)
// to key every derived artifact (native baselines, training profiles,
// DBM results) by the exact binary they came from. Every semantic field
// of an Executable is part of the image, so two executables with equal
// fingerprints are indistinguishable to the analyser, the VM and the
// DBM.
func (e *Executable) Fingerprint() string { return fingerprint(e.encode) }

// Fingerprint returns the hex SHA-256 of the library's canonical
// encoding (name, base, code, symbol table), mirroring
// Executable.Fingerprint for artifact-cache keys.
func (l *Library) Fingerprint() string { return fingerprint(l.encode) }

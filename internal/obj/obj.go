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
	"bytes"
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

// Executable is a loadable guest program image.
//
// An executable is immutable once constructed: nothing may write to
// Code, Data, Symbols or Imports afterwards. Every consumer relies on
// it — the memoised identity (Binary), the pointer-keyed stage caches,
// and the loader, which maps Data's bytes into every machine it loads
// instead of copying them (vm.NewMachine). Because it carries the
// loader's once-built image, an Executable must not be copied by value.
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

	// loaded is what the loader derived from the sections the first
	// time this executable was loaded (see Loaded). It belongs to this
	// executable alone and is collected with it.
	loadOnce sync.Once
	loaded   any
}

// Loaded returns the loader's view of e's sections: the value build
// returned on the first call, built at most once however many machines
// load e concurrently. The value lives exactly as long as e, so a
// process that drops an executable drops its loaded image with it.
func (e *Executable) Loaded(build func() any) any {
	e.loadOnce.Do(func() { e.loaded = build() })
	return e.loaded
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
// address CodeBase + i*guest.InstSize.
func (e *Executable) Decode() ([]guest.Inst, error) {
	return guest.DecodeAll(e.Code)
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
// The result is built field by field so e's loaded image does not
// follow it; the stripped executable builds its own on first load.
func (e *Executable) Strip() *Executable {
	return &Executable{
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

// encoder writes the canonical little-endian encoding that Save and
// both Fingerprints share. Its sinks — a byte counter, a pre-sized
// buffer, a hash — never fail, so write errors are not carried.
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

// encode streams the executable's file image into w.
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

// byteCount is the sink that measures an encoding without holding it.
type byteCount int

func (n *byteCount) Write(p []byte) (int, error) {
	*n += byteCount(len(p))
	return len(p), nil
}

// Save serialises the executable to a byte image (our "file format").
// The image is measured first, so a ~10 MB build is written into one
// allocation of exactly its length instead of through a doubling
// buffer.
func (e *Executable) Save() []byte {
	var n byteCount
	e.encode(&n)
	buf := bytes.NewBuffer(make([]byte, 0, n))
	e.encode(buf)
	return buf.Bytes()
}

// Load parses an image produced by Save.
func Load(img []byte) (*Executable, error) {
	r := bytes.NewReader(img)
	got := make([]byte, len(magic))
	if _, err := r.Read(got); err != nil || string(got) != magic {
		return nil, fmt.Errorf("obj: bad magic")
	}
	e := &Executable{}
	var err error
	rd64 := func() uint64 {
		var v uint64
		if err == nil {
			err = binary.Read(r, binary.LittleEndian, &v)
		}
		return v
	}
	rdStr := func() string {
		n := rd64()
		if err != nil || n > uint64(r.Len()) {
			if err == nil {
				err = fmt.Errorf("obj: truncated string")
			}
			return ""
		}
		b := make([]byte, n)
		_, err = r.Read(b)
		return string(b)
	}
	rdBytes := func() []byte {
		n := rd64()
		if err != nil || n > uint64(r.Len()) {
			if err == nil {
				err = fmt.Errorf("obj: truncated section")
			}
			return nil
		}
		b := make([]byte, n)
		_, err = r.Read(b)
		return b
	}
	e.Name = rdStr()
	e.Entry = rd64()
	e.CodeBase = rd64()
	e.Code = rdBytes()
	e.DataBase = rd64()
	e.Data = rdBytes()
	var sb [1]byte
	if err == nil {
		_, err = r.Read(sb[:])
	}
	e.Stripped = sb[0] == 1
	nsym := rd64()
	if err == nil && nsym > uint64(r.Len()) {
		return nil, fmt.Errorf("obj: corrupt symbol count")
	}
	for i := uint64(0); i < nsym && err == nil; i++ {
		var s Symbol
		s.Name = rdStr()
		s.Addr = rd64()
		s.Size = rd64()
		var kb [1]byte
		if err == nil {
			_, err = r.Read(kb[:])
		}
		s.Kind = SymKind(kb[0])
		e.Symbols = append(e.Symbols, s)
	}
	nimp := rd64()
	if err == nil && nimp > uint64(r.Len()) {
		return nil, fmt.Errorf("obj: corrupt import count")
	}
	for i := uint64(0); i < nimp && err == nil; i++ {
		var im Import
		im.Name = rdStr()
		im.PLT = rd64()
		e.Imports = append(e.Imports, im)
	}
	if err != nil {
		return nil, fmt.Errorf("obj: load: %w", err)
	}
	return e, nil
}

// fingerprint hashes what encode streams, without materialising it.
func fingerprint(encode func(io.Writer)) string {
	h := sha256.New()
	encode(h)
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint returns the hex SHA-256 of the executable's serialised
// image — sha256(Save()), streamed into the hasher rather than built
// first: the content-address used by the durable artifact cache
// (internal/artcache) to key every derived artifact (native baselines,
// training profiles, DBM results) by the exact binary they came from.
// Every semantic field of an Executable is part of Save, so two
// executables with equal fingerprints are indistinguishable to the
// analyser, the VM and the DBM.
func (e *Executable) Fingerprint() string { return fingerprint(e.encode) }

// Fingerprint returns the hex SHA-256 of the library's canonical
// encoding (name, base, code, symbol table), mirroring
// Executable.Fingerprint for artifact-cache keys.
func (l *Library) Fingerprint() string { return fingerprint(l.encode) }

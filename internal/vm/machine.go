package vm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"janus/internal/guest"
	"janus/internal/obj"
)

// Context is one hardware thread's architectural state plus its virtual
// clock. ExecRun, the one dispatch routine, keeps a run's cycle charge
// in a local, flushed into Cycles before a SYSCALL and when the run
// ends, adds the run's length to Insts when it ends, and resolves Bus
// once per run. So Cycles is current between runs and at every syscall,
// Insts between runs, and Bus may change only between runs.
type Context struct {
	// GPR holds the general-purpose registers; index guest.RegTLS (16)
	// is the thread-local-storage base pseudo-register.
	GPR [guest.NumGPR + 1]uint64
	// VReg holds the packed vector registers.
	VReg [guest.NumVReg][guest.VLEN]float64
	// Flags from the last CMP/TEST.
	ZF bool // zero
	LF bool // signed less-than

	PC     uint64
	Halted bool
	Exit   int64

	// Cycles is the virtual clock: the accumulated cost-model latency of
	// every instruction this context has executed.
	Cycles int64
	// Insts counts executed instructions.
	Insts int64

	// Bus routes memory accesses; defaults to the machine memory. The
	// host-parallel runtime substitutes a per-thread MemView, and the
	// STM substitutes a buffering bus during speculation.
	Bus Bus

	// ID is the Janus thread id (0 = main).
	ID int
}

// Reg reads a register, honouring the TLS pseudo-register.
func (c *Context) Reg(r guest.Reg) uint64 {
	if r == guest.RegNone {
		return 0
	}
	return c.GPR[r]
}

// SetReg writes a register.
func (c *Context) SetReg(r guest.Reg, v uint64) {
	if r == guest.RegNone {
		return
	}
	c.GPR[r] = v
}

// EffAddr computes the effective address of a memory operand.
func (c *Context) EffAddr(m guest.Mem) uint64 {
	addr := uint64(m.Disp)
	if m.Base != guest.RegNone {
		addr += c.Reg(m.Base)
	}
	if m.Index != guest.RegNone {
		addr += c.Reg(m.Index) * uint64(m.Scale)
	}
	return addr
}

// Machine is a loaded guest program: its memory image, code sources and
// allocation state. Contexts execute against a machine.
//
// All code is decoded eagerly at load time, so FetchInst performs no
// writes and is safe to call from concurrently executing guest threads
// (the DBM translates blocks into per-thread code caches while other
// threads run).
type Machine struct {
	Exe  *obj.Executable
	Libs []*obj.Library
	Mem  *Memory

	// linked is the code this machine fetches from, shared with every
	// machine loaded from Exe against the same libraries (linkedFor).
	linked

	// heapNext is the bump-allocation frontier for SysAlloc, advanced
	// atomically. Guest allocation from inside a host-parallel region is
	// prevented by the DBM's eligibility scan (a SYSCALL in a loop body
	// forces the round-robin engine), which keeps allocation addresses —
	// and therefore results — schedule-independent.
	heapNext atomic.Uint64

	// Output collects values written by SysWrite/SysWriteF in order.
	Output []uint64
}

// linked is an executable's code decoded and linked against one
// library set. It is immutable once built and shared by every machine
// that loads that executable against those libraries.
type linked struct {
	// libs are the library pointers the PLT stubs were resolved against.
	libs []*obj.Library
	// exeInsts holds decoded executable instructions by code index
	// (flat slice, no hashing on the fetch fast path), PLT stubs patched
	// to their library targets; exeOK marks valid entries. Without
	// imports both are the executable's own decoded form (obj.Decoded).
	exeInsts []guest.Inst
	exeOK    []bool
	// libInsts/libOK hold decoded library instructions per library,
	// indexed by instruction slot.
	libInsts [][]guest.Inst
	libOK    [][]bool
	// pltTarget maps a PLT stub address to its resolved library address.
	pltTarget map[uint64]uint64
	// err is the link failure (an unresolved import), if any.
	err error
}

// linkedFor returns exe's code linked against libs. The executable
// keeps the form linked against the libraries its first load used
// (obj.Executable.Loaded); a load with the same library pointers reuses
// it, and any other library set is linked privately.
func linkedFor(exe *obj.Executable, libs []*obj.Library) *linked {
	if l := exe.Loaded(func() any { return link(exe, libs) }).(*linked); slices.Equal(l.libs, libs) {
		return l
	}
	return link(exe, libs)
}

// link resolves exe's PLT stubs against the exports of libs, patches
// them into a copy of the executable's decoded code, and decodes the
// libraries.
func link(exe *obj.Executable, libs []*obj.Library) *linked {
	d := exe.Decoded()
	l := &linked{
		libs:      slices.Clone(libs),
		exeInsts:  d.Insts,
		exeOK:     d.OK,
		libInsts:  make([][]guest.Inst, len(libs)),
		libOK:     make([][]bool, len(libs)),
		pltTarget: make(map[uint64]uint64),
	}
	for _, im := range exe.Imports {
		resolved := false
		for _, lib := range libs {
			if s, ok := lib.SymbolByName(im.Name); ok {
				l.pltTarget[im.PLT] = s.Addr
				resolved = true
				break
			}
		}
		if !resolved {
			l.err = fmt.Errorf("vm: unresolved import %q", im.Name)
			return l
		}
	}
	if len(l.pltTarget) > 0 {
		// Loader-patched PLT stubs, in a copy: the decoded form is shared.
		l.exeInsts = slices.Clone(d.Insts)
		for addr, target := range l.pltTarget {
			off := addr - exe.CodeBase
			if idx := off / guest.InstSize; addr >= exe.CodeBase && off%guest.InstSize == 0 && idx < uint64(len(d.OK)) && d.OK[idx] {
				l.exeInsts[idx] = guest.NewInstI(guest.JMP, guest.RegNone, int64(target))
			}
		}
	}
	for li, lib := range libs {
		n := len(lib.Code) / guest.InstSize
		l.libInsts[li] = make([]guest.Inst, n)
		l.libOK[li] = make([]bool, n)
		for idx := 0; idx < n; idx++ {
			in, err := guest.Decode(lib.Code[uint64(idx)*guest.InstSize:])
			if err != nil {
				continue
			}
			l.libInsts[li][idx] = in
			l.libOK[li][idx] = true
		}
	}
	return l
}

// NewMachine loads exe and libs: maps the executable's data section
// into memory copy-on-write (the section's bytes are shared with every
// other machine loaded over that section and are never written; see
// image.go), and takes the executable's code linked against libs —
// decoded and PLT-patched once, not once per machine (linkedFor).
func NewMachine(exe *obj.Executable, libs ...*obj.Library) (*Machine, error) {
	l := linkedFor(exe, libs)
	if l.err != nil {
		return nil, l.err
	}
	m := &Machine{
		Exe:    exe,
		Libs:   libs,
		Mem:    newMemoryOver(imageOf(exe)),
		linked: *l,
	}
	m.heapNext.Store(obj.DefaultHeapBase)
	return m, nil
}

// Close recycles the machine's memory (Memory.Close) once its run is
// over and everything read of it — hashes, Output — has been taken.
func (m *Machine) Close() { m.Mem.Close() }

// NewContext returns a fresh context with its stack at top and PC at the
// program entry.
func (m *Machine) NewContext(id int, stackTop uint64) *Context {
	c := &Context{ID: id, PC: m.Exe.Entry, Bus: m.Mem}
	c.SetReg(guest.SP, stackTop)
	return c
}

// FetchInst returns the decoded instruction at addr from the executable
// or a library, with PLT stubs resolved to their library targets. All
// decoding happened at load time, so FetchInst mutates nothing and is
// safe for concurrent use.
func (m *Machine) FetchInst(addr uint64) (guest.Inst, error) {
	// Fast path: executable code indexes a flat decode cache. The cache
	// is sized in whole instructions, so bounding the index also rejects
	// a truncated trailing fragment, which falls through to the decoding
	// error path.
	if addr >= m.Exe.CodeBase {
		off := addr - m.Exe.CodeBase
		if idx := off / guest.InstSize; idx < uint64(len(m.exeOK)) && off%guest.InstSize == 0 {
			if m.exeOK[idx] {
				return m.exeInsts[idx], nil
			}
			_, err := m.Exe.InstAt(addr) // reproduce the decode error
			return guest.Inst{}, err
		}
	}
	if m.Exe.InCode(addr) {
		// Misaligned or truncated executable address.
		_, err := m.Exe.InstAt(addr)
		return guest.Inst{}, err
	}
	for li, lib := range m.Libs {
		if !lib.InCode(addr) {
			continue
		}
		off := addr - lib.Base
		if idx := off / guest.InstSize; off%guest.InstSize == 0 && idx < uint64(len(m.libOK[li])) {
			if m.libOK[li][idx] {
				return m.libInsts[li][idx], nil
			}
			_, err := guest.Decode(lib.Code[off:])
			return guest.Inst{}, err
		}
		// Misaligned library fetch: decode on the fly (pure, uncached).
		return guest.Decode(lib.Code[off:])
	}
	return guest.Inst{}, fmt.Errorf("vm: fetch from unmapped address %#x", addr)
}

// ExeCode returns the n instructions at addr as a window onto the
// machine's linked decode cache — the array every machine loaded from
// the executable against the same libraries shares — with its capacity
// clipped to n, or false unless they are n aligned, decoded
// instructions of the executable. They are what FetchInst returns for
// each address. The window is shared and must never be written.
func (m *Machine) ExeCode(addr uint64, n int) ([]guest.Inst, bool) {
	off := addr - m.Exe.CodeBase
	idx := off / guest.InstSize
	if addr < m.Exe.CodeBase || off%guest.InstSize != 0 || idx+uint64(n) > uint64(len(m.exeOK)) {
		return nil, false
	}
	end := idx + uint64(n)
	for _, ok := range m.exeOK[idx:end] {
		if !ok {
			return nil, false
		}
	}
	return m.exeInsts[idx:end:end], true
}

// PLTTarget returns the resolved target of a PLT stub, if addr is one.
func (m *Machine) PLTTarget(addr uint64) (uint64, bool) {
	t, ok := m.pltTarget[addr]
	return t, ok
}

// Alloc carves size bytes of zeroed heap, 64-byte aligned.
func (m *Machine) Alloc(size uint64) uint64 {
	span := (size + 63) &^ 63
	return m.heapNext.Add(span) - span
}

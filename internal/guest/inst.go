package guest

import (
	"fmt"
	"math/bits"
	"strings"
)

// Mem is an x86-style memory operand: address = Base + Index*Scale + Disp.
// Base and Index may be RegNone. Scale is 1, 2, 4 or 8.
type Mem struct {
	Base  Reg
	Index Reg
	Scale uint8
	Disp  int64
}

// NoMem is the absent memory operand.
var NoMem = Mem{Base: RegNone, Index: RegNone, Scale: 1}

// IsZero reports whether the operand is entirely absent.
func (m Mem) IsZero() bool {
	return m.Base == RegNone && m.Index == RegNone && m.Disp == 0
}

// IsAbsolute reports whether the operand has no register components and
// therefore names a fixed address (Disp).
func (m Mem) IsAbsolute() bool {
	return m.Base == RegNone && m.Index == RegNone
}

// String renders the operand in assembler syntax.
func (m Mem) String() string {
	var b strings.Builder
	b.WriteByte('[')
	wrote := false
	if m.Base != RegNone {
		b.WriteString(m.Base.String())
		wrote = true
	}
	if m.Index != RegNone {
		if wrote {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%s*%d", m.Index, m.Scale)
		wrote = true
	}
	if m.Disp != 0 || !wrote {
		if wrote && m.Disp >= 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%#x", m.Disp)
	}
	b.WriteByte(']')
	return b.String()
}

// Inst is a single decoded guest instruction. The Rd/Rs fields double as
// vector register numbers for vector opcodes.
type Inst struct {
	Op  Op
	Rd  Reg
	Rs  Reg
	Imm int64
	M   Mem
}

// NewInst returns a register-register instruction.
func NewInst(op Op, rd, rs Reg) Inst { return Inst{Op: op, Rd: rd, Rs: rs, M: NoMem} }

// NewInstI returns an instruction with an immediate operand.
func NewInstI(op Op, rd Reg, imm int64) Inst {
	return Inst{Op: op, Rd: rd, Imm: imm, M: NoMem}
}

// NewInstM returns an instruction with a memory operand.
func NewInstM(op Op, r Reg, m Mem) Inst {
	in := Inst{Op: op, Rd: RegNone, Rs: RegNone, M: m}
	if op.HasRd() {
		in.Rd = r
	}
	if op.HasRs() {
		in.Rs = r
	}
	return in
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	info := in.Op.String()
	var parts []string
	if in.Op.HasRd() {
		parts = append(parts, in.Rd.String())
	}
	if in.Op.HasRs() {
		parts = append(parts, in.Rs.String())
	}
	if in.Op.HasMem() {
		parts = append(parts, in.M.String())
	}
	if in.Op.HasImm() {
		if in.Op.IsBranch() || in.Op == CALL {
			parts = append(parts, fmt.Sprintf("%#x", uint64(in.Imm)))
		} else {
			parts = append(parts, fmt.Sprintf("%d", in.Imm))
		}
	}
	if len(parts) == 0 {
		return info
	}
	return info + " " + strings.Join(parts, ", ")
}

// Loc identifies a storage location read or written by an instruction,
// for def-use analysis. Exactly one of the fields is meaningful,
// selected by Kind.
type Loc struct {
	Kind LocKind
	Reg  Reg // for LocReg / LocVReg
}

// LocKind discriminates Loc.
type LocKind uint8

const (
	LocReg   LocKind = iota // general-purpose register Loc.Reg
	LocVReg                 // vector register Loc.Reg
	LocFlags                // the flags register
	LocMem                  // a memory cell (address not captured here)
)

func (l Loc) String() string {
	switch l.Kind {
	case LocReg:
		return l.Reg.String()
	case LocVReg:
		return fmt.Sprintf("v%d", uint8(l.Reg))
	case LocFlags:
		return "flags"
	case LocMem:
		return "mem"
	}
	return "?"
}

// regLoc and related helpers build Locs.
func regLoc(r Reg) Loc  { return Loc{Kind: LocReg, Reg: r} }
func vregLoc(r Reg) Loc { return Loc{Kind: LocVReg, Reg: r} }

// callArgRegs lists the calling convention's argument registers R1..R5.
func callArgRegs() []Loc {
	out := make([]Loc, 0, 5)
	for r := R1; r <= R5; r++ {
		out = append(out, regLoc(r))
	}
	return out
}

// Uses returns the locations read by the instruction, in no particular
// order. Memory reads are reported as a single LocMem entry; the precise
// address expression is handled by the symbolic analysis.
func (in Inst) Uses() []Loc {
	var out []Loc
	op := in.Op
	// ALU two-operand forms read their destination too.
	switch op {
	case ADD, SUB, IMUL, IDIV, AND, OR, XOR, SHL, SHR,
		FADD, FSUB, FMUL, FDIV,
		ADDI, SUBI, IMULI, ANDI, ORI, XORI, SHLI, SHRI,
		INC, DEC, NEG, CMP, CMPI, TEST, FCMP:
		if op.IsVector() {
			out = append(out, vregLoc(in.Rd))
		} else if in.Rd.Valid() || in.Rd == RegTLS {
			out = append(out, regLoc(in.Rd))
		}
	case VADD, VMUL:
		out = append(out, vregLoc(in.Rd))
	case CMOVE, CMOVNE:
		// Conditionally overwrites rd; conservatively reads it.
		out = append(out, regLoc(in.Rd))
	case JMPI:
		out = append(out, regLoc(in.Rd))
	case CALLI:
		out = append(out, regLoc(in.Rd))
		out = append(out, callArgRegs()...)
	case SYSCALL:
		out = append(out, regLoc(R0), regLoc(R1), regLoc(R2))
	case PUSH:
		out = append(out, regLoc(SP))
	case POP, RET:
		out = append(out, regLoc(SP))
	case CALL:
		// Calls read the argument registers of the convention. SP is
		// deliberately absent: a call returns with SP restored, so it
		// is SP-neutral for intra-procedural analysis.
		out = append(out, callArgRegs()...)
	}
	if op.HasRs() {
		if op.IsVector() && (op == VADD || op == VMUL || op == VST) {
			out = append(out, vregLoc(in.Rs))
		} else if in.Rs.Valid() || in.Rs == RegTLS {
			out = append(out, regLoc(in.Rs))
		}
	}
	if op.HasMem() {
		if in.M.Base != RegNone {
			out = append(out, regLoc(in.M.Base))
		}
		if in.M.Index != RegNone {
			out = append(out, regLoc(in.M.Index))
		}
		if op == LD || op == VLD {
			out = append(out, Loc{Kind: LocMem})
		}
	}
	if op == POP || op == RET {
		out = append(out, Loc{Kind: LocMem})
	}
	if op.ReadsFlags() {
		out = append(out, Loc{Kind: LocFlags})
	}
	return out
}

// Defs returns the locations written by the instruction.
func (in Inst) Defs() []Loc {
	var out []Loc
	op := in.Op
	switch op {
	case ST, STI, VST, CALL, CALLI, PUSH:
		out = append(out, Loc{Kind: LocMem})
	}
	if op.HasRd() {
		switch op {
		case CMP, CMPI, TEST, FCMP, JMPI:
			// Rd is a pure source for these.
		case VLD, VADD, VMUL, VBCST:
			out = append(out, vregLoc(in.Rd))
		default:
			if in.Rd.Valid() || in.Rd == RegTLS {
				out = append(out, regLoc(in.Rd))
			}
		}
	}
	switch op {
	case PUSH, POP, RET:
		out = append(out, regLoc(SP))
	case CALL, CALLI:
		// Calls clobber the caller-saved registers R0..R5 (return value
		// and argument registers); SP is balanced across the call.
		for r := R0; r <= R5; r++ {
			out = append(out, regLoc(r))
		}
	case SYSCALL:
		out = append(out, regLoc(R0))
	}
	if op.WritesFlags() {
		out = append(out, Loc{Kind: LocFlags})
	}
	return out
}

// ReadsMem reports whether the instruction loads from memory.
func (in Inst) ReadsMem() bool {
	switch in.Op {
	case LD, VLD, POP, RET:
		return true
	}
	return false
}

// WritesMem reports whether the instruction stores to memory.
func (in Inst) WritesMem() bool {
	switch in.Op {
	case ST, STI, VST, PUSH, CALL, CALLI:
		return true
	}
	return false
}

// AccessWidth returns the number of bytes read or written by a memory
// access instruction (0 for non-memory instructions).
func (in Inst) AccessWidth() int64 {
	switch in.Op {
	case LD, ST, STI, PUSH, POP:
		return 8
	case VLD, VST:
		return 8 * VLEN
	}
	return 0
}

// RegSet is a set of the registers SSA versions: the GPRs and RegTLS,
// one bit each. Registers outside that range are never members.
type RegSet uint32

// With returns s plus r; r outside the GPRs and RegTLS leaves s as is.
func (s RegSet) With(r Reg) RegSet {
	if r > RegTLS {
		return s
	}
	return s | 1<<r
}

// Has reports whether r is in s.
func (s RegSet) Has(r Reg) bool { return r <= RegTLS && s&(1<<r) != 0 }

// Len returns the number of registers in s.
func (s RegSet) Len() int { return bits.OnesCount32(uint32(s)) }

// callArgSet is callArgRegs as a set.
const callArgSet RegSet = 1<<R1 | 1<<R2 | 1<<R3 | 1<<R4 | 1<<R5

// UseRegs returns the GPRs and RegTLS the instruction reads: Uses
// restricted to LocReg, without allocating.
func (in Inst) UseRegs() RegSet {
	var s RegSet
	op := in.Op
	switch op {
	case ADD, SUB, IMUL, IDIV, AND, OR, XOR, SHL, SHR,
		FADD, FSUB, FMUL, FDIV,
		ADDI, SUBI, IMULI, ANDI, ORI, XORI, SHLI, SHRI,
		INC, DEC, NEG, CMP, CMPI, TEST, FCMP,
		CMOVE, CMOVNE, JMPI:
		s = s.With(in.Rd)
	case CALLI:
		s = s.With(in.Rd) | callArgSet
	case SYSCALL:
		s = 1<<R0 | 1<<R1 | 1<<R2
	case PUSH, POP, RET:
		s = 1 << SP
	case CALL:
		s = callArgSet
	}
	if op.HasRs() && !(op == VADD || op == VMUL || op == VST) {
		s = s.With(in.Rs)
	}
	if op.HasMem() {
		s = s.With(in.M.Base).With(in.M.Index)
	}
	return s
}

// DefRegs returns the GPRs and RegTLS the instruction writes: Defs
// restricted to LocReg, without allocating.
func (in Inst) DefRegs() RegSet {
	var s RegSet
	op := in.Op
	if op.HasRd() {
		switch op {
		case CMP, CMPI, TEST, FCMP, JMPI, VLD, VADD, VMUL, VBCST:
			// A pure source, or a vector register.
		default:
			s = s.With(in.Rd)
		}
	}
	switch op {
	case PUSH, POP, RET:
		s = s.With(SP)
	case CALL, CALLI:
		s |= 1<<R0 | callArgSet
	case SYSCALL:
		s = s.With(R0)
	}
	return s
}

// Package guest defines the synthetic 64-bit guest ISA that Janus-Go
// analyses, transforms and executes.
//
// The ISA is deliberately modelled on x86-64: sixteen 64-bit general
// purpose registers, a flags register set by CMP/TEST, x86-style memory
// operands (base + index*scale + displacement), call/return with an
// explicit stack pointer, and a packed vector extension. These are the
// features that make binary-level analysis hard in the paper (complex
// addressing, flag-carried control flow, spills, unrolled and vectorised
// loops), so the same analysis obstacles arise here.
//
// Instructions have a fixed-width encoding (see encode.go) so that an
// executable is a flat byte image that must be decoded before analysis,
// exactly as a real disassembler-based static analyser would.
package guest

import "fmt"

// Reg names a general-purpose register. R15 is the stack pointer by
// convention (SP). RegTLS is a pseudo-register holding the thread-local
// storage base; it is only ever written by DBM-generated code, never by
// guest programs. RegNone marks an absent base/index in a memory operand.
type Reg uint8

const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// SP is the conventional stack pointer.
	SP = R15

	// RegTLS is the pseudo-register holding the thread-local storage
	// base address. Guest programs must not reference it; only code
	// emitted by rewrite-rule handlers does.
	RegTLS Reg = 16

	// NumGPR is the number of architectural general-purpose registers.
	NumGPR = 16

	// NumVReg is the number of packed vector registers.
	NumVReg = 16

	// RegNone marks an absent register in a memory operand.
	RegNone Reg = 0xFF
)

// String returns the assembler name of the register.
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "none"
	case r == RegTLS:
		return "tls"
	case r == SP:
		return "sp"
	case r < NumGPR:
		return fmt.Sprintf("r%d", uint8(r))
	default:
		return fmt.Sprintf("r?%d", uint8(r))
	}
}

// Valid reports whether r names an architectural GPR (including SP).
func (r Reg) Valid() bool { return r < NumGPR }

// Op is an opcode of the guest ISA.
type Op uint8

// Opcodes. The comment after each gives the operand form:
// rd = destination register, rs = source register, imm = 64-bit
// immediate, mem = memory operand, vd/vs = vector registers.
const (
	NOP  Op = iota // no operation
	HALT           // stop the machine

	// Data movement.
	MOV  // rd <- rs
	MOVI // rd <- imm
	LD   // rd <- [mem] (8 bytes)
	ST   // [mem] <- rs (8 bytes)
	STI  // [mem] <- imm (8 bytes)
	LEA  // rd <- effective address of mem
	PUSH // [--sp] <- rs
	POP  // rd <- [sp++]

	// Integer ALU, register form: rd <- rd op rs.
	ADD
	SUB
	IMUL
	IDIV // rd <- rd / rs (also writes remainder nowhere; trap on 0)
	AND
	OR
	XOR
	SHL
	SHR

	// Integer ALU, immediate form: rd <- rd op imm.
	ADDI
	SUBI
	IMULI
	ANDI
	ORI
	XORI
	SHLI
	SHRI

	// Unary.
	INC // rd <- rd + 1
	DEC // rd <- rd - 1
	NEG // rd <- -rd

	// Floating point (registers hold float64 bit patterns).
	FADD // rd <- rd +. rs
	FSUB
	FMUL
	FDIV
	FSQRT // rd <- sqrt(rs)
	FNEG  // rd <- -rs
	CVTIF // rd <- float64(int64(rs))
	CVTFI // rd <- int64(float64(rs))

	// Flags and conditional data movement.
	CMP   // flags <- compare(rd, rs) signed
	CMPI  // flags <- compare(rd, imm) signed
	FCMP  // flags <- compare float64(rd), float64(rs)
	TEST  // flags <- rd & rs
	CMOVE // rd <- rs if ZF
	CMOVNE

	// Control flow. Targets are absolute code addresses in imm.
	JMP  // unconditional
	JMPI // indirect: target in rd
	JE
	JNE
	JL
	JLE
	JG
	JGE
	CALL  // push return addr; jump imm
	CALLI // push return addr; jump rd
	RET   // pop return addr; jump

	// System interaction; the call number is in R0, args in R1..R5.
	SYSCALL

	// Packed vector extension: VLEN float64 lanes per register.
	VLD   // vd <- [mem..mem+8*VLEN)
	VST   // [mem..) <- vs
	VADD  // vd <- vd +. vs lanewise
	VMUL  // vd <- vd *. vs lanewise
	VBCST // vd <- broadcast float64 in rs

	opMax
)

// VLEN is the number of float64 lanes in a vector register (AVX-like
// 256-bit width).
const VLEN = 4

// opInfo is static metadata about an opcode.
type opInfo struct {
	name string
	// operand shape flags
	hasRd, hasRs, hasImm, hasMem, vector bool
	// cycles is the base latency charged by the cost model.
	cycles int64
}

var opTable = [opMax]opInfo{
	NOP:     {name: "nop", cycles: 1},
	HALT:    {name: "halt", cycles: 1},
	MOV:     {name: "mov", hasRd: true, hasRs: true, cycles: 1},
	MOVI:    {name: "movi", hasRd: true, hasImm: true, cycles: 1},
	LD:      {name: "ld", hasRd: true, hasMem: true, cycles: 4},
	ST:      {name: "st", hasRs: true, hasMem: true, cycles: 1},
	STI:     {name: "sti", hasImm: true, hasMem: true, cycles: 1},
	LEA:     {name: "lea", hasRd: true, hasMem: true, cycles: 1},
	PUSH:    {name: "push", hasRs: true, cycles: 2},
	POP:     {name: "pop", hasRd: true, cycles: 2},
	ADD:     {name: "add", hasRd: true, hasRs: true, cycles: 1},
	SUB:     {name: "sub", hasRd: true, hasRs: true, cycles: 1},
	IMUL:    {name: "imul", hasRd: true, hasRs: true, cycles: 3},
	IDIV:    {name: "idiv", hasRd: true, hasRs: true, cycles: 20},
	AND:     {name: "and", hasRd: true, hasRs: true, cycles: 1},
	OR:      {name: "or", hasRd: true, hasRs: true, cycles: 1},
	XOR:     {name: "xor", hasRd: true, hasRs: true, cycles: 1},
	SHL:     {name: "shl", hasRd: true, hasRs: true, cycles: 1},
	SHR:     {name: "shr", hasRd: true, hasRs: true, cycles: 1},
	ADDI:    {name: "addi", hasRd: true, hasImm: true, cycles: 1},
	SUBI:    {name: "subi", hasRd: true, hasImm: true, cycles: 1},
	IMULI:   {name: "imuli", hasRd: true, hasImm: true, cycles: 3},
	ANDI:    {name: "andi", hasRd: true, hasImm: true, cycles: 1},
	ORI:     {name: "ori", hasRd: true, hasImm: true, cycles: 1},
	XORI:    {name: "xori", hasRd: true, hasImm: true, cycles: 1},
	SHLI:    {name: "shli", hasRd: true, hasImm: true, cycles: 1},
	SHRI:    {name: "shri", hasRd: true, hasImm: true, cycles: 1},
	INC:     {name: "inc", hasRd: true, cycles: 1},
	DEC:     {name: "dec", hasRd: true, cycles: 1},
	NEG:     {name: "neg", hasRd: true, cycles: 1},
	FADD:    {name: "fadd", hasRd: true, hasRs: true, cycles: 4},
	FSUB:    {name: "fsub", hasRd: true, hasRs: true, cycles: 4},
	FMUL:    {name: "fmul", hasRd: true, hasRs: true, cycles: 5},
	FDIV:    {name: "fdiv", hasRd: true, hasRs: true, cycles: 14},
	FSQRT:   {name: "fsqrt", hasRd: true, hasRs: true, cycles: 16},
	FNEG:    {name: "fneg", hasRd: true, hasRs: true, cycles: 1},
	CVTIF:   {name: "cvtif", hasRd: true, hasRs: true, cycles: 4},
	CVTFI:   {name: "cvtfi", hasRd: true, hasRs: true, cycles: 4},
	CMP:     {name: "cmp", hasRd: true, hasRs: true, cycles: 1},
	CMPI:    {name: "cmpi", hasRd: true, hasImm: true, cycles: 1},
	FCMP:    {name: "fcmp", hasRd: true, hasRs: true, cycles: 4},
	TEST:    {name: "test", hasRd: true, hasRs: true, cycles: 1},
	CMOVE:   {name: "cmove", hasRd: true, hasRs: true, cycles: 1},
	CMOVNE:  {name: "cmovne", hasRd: true, hasRs: true, cycles: 1},
	JMP:     {name: "jmp", hasImm: true, cycles: 1},
	JMPI:    {name: "jmpi", hasRd: true, cycles: 2},
	JE:      {name: "je", hasImm: true, cycles: 1},
	JNE:     {name: "jne", hasImm: true, cycles: 1},
	JL:      {name: "jl", hasImm: true, cycles: 1},
	JLE:     {name: "jle", hasImm: true, cycles: 1},
	JG:      {name: "jg", hasImm: true, cycles: 1},
	JGE:     {name: "jge", hasImm: true, cycles: 1},
	CALL:    {name: "call", hasImm: true, cycles: 3},
	CALLI:   {name: "calli", hasRd: true, cycles: 4},
	RET:     {name: "ret", cycles: 3},
	SYSCALL: {name: "syscall", cycles: 50},
	VLD:     {name: "vld", hasRd: true, hasMem: true, vector: true, cycles: 5},
	VST:     {name: "vst", hasRs: true, hasMem: true, vector: true, cycles: 2},
	VADD:    {name: "vadd", hasRd: true, hasRs: true, vector: true, cycles: 4},
	VMUL:    {name: "vmul", hasRd: true, hasRs: true, vector: true, cycles: 5},
	VBCST:   {name: "vbcst", hasRd: true, hasRs: true, vector: true, cycles: 2},
}

// String returns the assembler mnemonic of the opcode.
func (op Op) String() string {
	if op < opMax && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// opValid caches which table entries are defined, so validity checks on
// the per-instruction dispatch path are a single array load.
var opValid = func() (v [opMax]bool) {
	for i := range opTable {
		v[i] = opTable[i].name != ""
	}
	return
}()

// Valid reports whether op is a defined opcode.
func (op Op) Valid() bool { return op < opMax && opValid[op] }

// opCycles flattens the cost-model latencies (with the undefined-opcode
// fallback baked in) into one array, so the per-instruction charge is a
// single load.
var opCycles = func() (c [opMax]int64) {
	for i := range opTable {
		c[i] = opTable[i].cycles
		if opTable[i].name == "" {
			c[i] = 1
		}
	}
	return
}()

// Cycles returns the base cost-model latency of the opcode.
func (op Op) Cycles() int64 {
	if op < opMax {
		return opCycles[op]
	}
	return 1
}

// HasRd reports whether the opcode uses the Rd field.
func (op Op) HasRd() bool { return op.Valid() && opTable[op].hasRd }

// HasRs reports whether the opcode uses the Rs field.
func (op Op) HasRs() bool { return op.Valid() && opTable[op].hasRs }

// HasImm reports whether the opcode uses the immediate field.
func (op Op) HasImm() bool { return op.Valid() && opTable[op].hasImm }

// HasMem reports whether the opcode has a memory operand.
func (op Op) HasMem() bool { return op.Valid() && opTable[op].hasMem }

// IsVector reports whether the opcode operates on vector registers.
func (op Op) IsVector() bool { return op.Valid() && opTable[op].vector }

// IsBranch reports whether the opcode is any control transfer
// (conditional or not, direct or indirect), excluding CALL/RET.
func (op Op) IsBranch() bool {
	switch op {
	case JMP, JMPI, JE, JNE, JL, JLE, JG, JGE:
		return true
	}
	return false
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (op Op) IsCondBranch() bool {
	switch op {
	case JE, JNE, JL, JLE, JG, JGE:
		return true
	}
	return false
}

// IsBlockEnd reports whether the opcode terminates a basic block.
func (op Op) IsBlockEnd() bool {
	switch op {
	case JMP, JMPI, JE, JNE, JL, JLE, JG, JGE, CALL, CALLI, RET, HALT:
		return true
	}
	return false
}

// IsCall reports whether the opcode is a call.
func (op Op) IsCall() bool { return op == CALL || op == CALLI }

// ReadsFlags reports whether the opcode reads the flags register.
func (op Op) ReadsFlags() bool {
	switch op {
	case JE, JNE, JL, JLE, JG, JGE, CMOVE, CMOVNE:
		return true
	}
	return false
}

// WritesFlags reports whether the opcode writes the flags register.
func (op Op) WritesFlags() bool {
	switch op {
	case CMP, CMPI, FCMP, TEST:
		return true
	}
	return false
}

// InvertCond returns the opposite conditional branch opcode, or NOP if
// op is not a conditional branch.
func InvertCond(op Op) Op {
	switch op {
	case JE:
		return JNE
	case JNE:
		return JE
	case JL:
		return JGE
	case JLE:
		return JG
	case JG:
		return JLE
	case JGE:
		return JL
	}
	return NOP
}

// Syscall numbers (in R0 at a SYSCALL instruction).
const (
	SysExit   = 1 // exit(status=R1)
	SysWrite  = 2 // write value R1 to the program's output stream (IO)
	SysAlloc  = 3 // R0 <- allocate R1 bytes of zeroed heap
	SysWriteF = 4 // write float64 bits R1 to the output stream (IO)
	SysClock  = 5 // R0 <- virtual cycle counter
)

package guest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{R0, "r0"},
		{R7, "r7"},
		{SP, "sp"},
		{RegTLS, "tls"},
		{RegNone, "none"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestOpMetadataComplete(t *testing.T) {
	for op := Op(0); op < opMax; op++ {
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no metadata entry", op)
		}
		if opTable[op].cycles <= 0 {
			t.Errorf("opcode %s has non-positive cycle cost", op)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !JE.IsCondBranch() || !JE.IsBranch() || !JE.ReadsFlags() {
		t.Error("JE predicates wrong")
	}
	if JMP.IsCondBranch() {
		t.Error("JMP should not be conditional")
	}
	if !CALL.IsCall() || !CALL.IsBlockEnd() {
		t.Error("CALL predicates wrong")
	}
	if !CMP.WritesFlags() || CMP.ReadsFlags() {
		t.Error("CMP flag predicates wrong")
	}
	if !RET.IsBlockEnd() || RET.IsBranch() {
		t.Error("RET predicates wrong")
	}
	if !VLD.IsVector() || LD.IsVector() {
		t.Error("vector predicates wrong")
	}
}

func TestInvertCond(t *testing.T) {
	pairs := [][2]Op{{JE, JNE}, {JL, JGE}, {JLE, JG}}
	for _, p := range pairs {
		if InvertCond(p[0]) != p[1] || InvertCond(p[1]) != p[0] {
			t.Errorf("InvertCond(%s/%s) broken", p[0], p[1])
		}
	}
	if InvertCond(ADD) != NOP {
		t.Error("InvertCond of non-branch should be NOP")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insts := []Inst{
		NewInst(ADD, R1, R2),
		NewInstI(MOVI, R3, -42),
		NewInstM(LD, R4, Mem{Base: R8, Index: R0, Scale: 4, Disp: 8}),
		NewInstM(ST, R5, Mem{Base: R9, Index: RegNone, Scale: 1, Disp: -16}),
		NewInstI(JMP, RegNone, 0x400900),
		{Op: STI, Rd: RegNone, Rs: RegNone, Imm: 7, M: Mem{Base: R2, Index: RegNone, Scale: 1, Disp: 24}},
		NewInst(VADD, 3, 4),
		{Op: SYSCALL, Rd: RegNone, Rs: RegNone, M: NoMem},
	}
	for _, in := range insts {
		b := Encode(in)
		got, err := Decode(b[:])
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		if got != in {
			t.Errorf("round trip mismatch: %v -> %v", in, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, InstSize-1)); err == nil {
		t.Error("short buffer should fail")
	}
	bad := make([]byte, InstSize)
	bad[0] = byte(opMax) + 10
	if _, err := Decode(bad); err == nil {
		t.Error("undefined opcode should fail")
	}
	if _, err := DecodeAll(make([]byte, InstSize+1)); err == nil {
		t.Error("misaligned image should fail")
	}
}

func TestEncodeDecodeAll(t *testing.T) {
	insts := []Inst{NewInst(MOV, R0, R1), NewInstI(MOVI, R2, 9), {Op: RET, Rd: RegNone, Rs: RegNone, M: NoMem}}
	img := EncodeAll(insts)
	if len(img) != 3*InstSize {
		t.Fatalf("image length %d", len(img))
	}
	back, err := DecodeAll(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(insts) {
		t.Fatalf("decoded %d insts", len(back))
	}
	for i := range insts {
		if back[i] != insts[i] {
			t.Errorf("inst %d: %v != %v", i, back[i], insts[i])
		}
	}
}

// randomInst builds an arbitrary-but-valid instruction for property tests.
func randomInst(r *rand.Rand) Inst {
	for {
		op := Op(r.Intn(int(opMax)))
		if !op.Valid() {
			continue
		}
		in := Inst{Op: op, Rd: RegNone, Rs: RegNone, M: NoMem}
		if op.HasRd() {
			in.Rd = Reg(r.Intn(NumGPR))
		}
		if op.HasRs() {
			in.Rs = Reg(r.Intn(NumGPR))
		}
		if op.HasImm() {
			in.Imm = r.Int63() - r.Int63()
		}
		if op.HasMem() {
			in.M = Mem{Base: Reg(r.Intn(NumGPR)), Index: Reg(r.Intn(NumGPR)), Scale: []uint8{1, 2, 4, 8}[r.Intn(4)], Disp: int64(r.Intn(4096)) - 2048}
		}
		return in
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInst(r)
		b := Encode(in)
		got, err := Decode(b[:])
		return err == nil && got == in
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDefsUsesConsistency(t *testing.T) {
	// Every ALU two-operand op must read and write its destination.
	alu := []Op{ADD, SUB, IMUL, AND, OR, XOR, FADD, FMUL}
	for _, op := range alu {
		in := NewInst(op, R3, R4)
		if !hasReg(in.Uses(), R3) || !hasReg(in.Uses(), R4) {
			t.Errorf("%s uses wrong: %v", op, in.Uses())
		}
		if !hasReg(in.Defs(), R3) {
			t.Errorf("%s defs wrong: %v", op, in.Defs())
		}
	}
	// Loads read mem and base/index regs, write rd.
	ld := NewInstM(LD, R1, Mem{Base: R2, Index: R3, Scale: 8, Disp: 8})
	if !hasReg(ld.Uses(), R2) || !hasReg(ld.Uses(), R3) || !hasMem(ld.Uses()) {
		t.Errorf("LD uses wrong: %v", ld.Uses())
	}
	if !hasReg(ld.Defs(), R1) || hasMem(ld.Defs()) {
		t.Errorf("LD defs wrong: %v", ld.Defs())
	}
	// Stores are the reverse.
	st := NewInstM(ST, R1, Mem{Base: R2, Index: RegNone, Scale: 1})
	if !hasReg(st.Uses(), R1) || !hasReg(st.Uses(), R2) {
		t.Errorf("ST uses wrong: %v", st.Uses())
	}
	if !hasMem(st.Defs()) {
		t.Errorf("ST defs wrong: %v", st.Defs())
	}
	// CMP writes only flags.
	cmp := NewInst(CMP, R1, R2)
	for _, d := range cmp.Defs() {
		if d.Kind != LocFlags {
			t.Errorf("CMP should write only flags, got %v", cmp.Defs())
		}
	}
	// Conditional branch reads flags.
	je := NewInstI(JE, RegNone, 0x1000)
	if !hasFlags(je.Uses()) {
		t.Errorf("JE should read flags: %v", je.Uses())
	}
}

func TestAccessWidth(t *testing.T) {
	if w := NewInstM(LD, R0, NoMem).AccessWidth(); w != 8 {
		t.Errorf("LD width %d", w)
	}
	if w := NewInstM(VLD, 0, NoMem).AccessWidth(); w != 8*VLEN {
		t.Errorf("VLD width %d", w)
	}
	if w := NewInst(ADD, R0, R1).AccessWidth(); w != 0 {
		t.Errorf("ADD width %d", w)
	}
}

func TestMemString(t *testing.T) {
	m := Mem{Base: R8, Index: R0, Scale: 4, Disp: 8}
	if s := m.String(); s != "[r8+r0*4+0x8]" {
		t.Errorf("Mem.String() = %q", s)
	}
	abs := Mem{Base: RegNone, Index: RegNone, Scale: 1, Disp: 0x601000}
	if !abs.IsAbsolute() {
		t.Error("absolute operand not detected")
	}
	if s := abs.String(); s != "[0x601000]" {
		t.Errorf("abs Mem.String() = %q", s)
	}
}

func TestInstString(t *testing.T) {
	in := NewInstM(LD, R4, Mem{Base: R8, Index: RegNone, Scale: 1, Disp: 24})
	if s := in.String(); s != "ld r4, [r8+0x18]" {
		t.Errorf("Inst.String() = %q", s)
	}
	j := NewInstI(JLE, RegNone, 0x400900)
	if s := j.String(); s != "jle 0x400900" {
		t.Errorf("branch String() = %q", s)
	}
}

func hasReg(ls []Loc, r Reg) bool {
	for _, l := range ls {
		if l.Kind == LocReg && l.Reg == r {
			return true
		}
	}
	return false
}

func hasMem(ls []Loc) bool {
	for _, l := range ls {
		if l.Kind == LocMem {
			return true
		}
	}
	return false
}

func hasFlags(ls []Loc) bool {
	for _, l := range ls {
		if l.Kind == LocFlags {
			return true
		}
	}
	return false
}

// TestRegSetsMatchLocs: UseRegs and DefRegs equal Uses and Defs
// filtered to LocReg, for every opcode and every combination of
// register or RegNone in Rd, Rs, base and index. A register outside the
// GPRs and RegTLS (RegNone read as a register by CMOVE, JMPI or CALLI)
// is not a set member.
func TestRegSetsMatchLocs(t *testing.T) {
	regs := []Reg{RegNone}
	for r := Reg(0); r <= RegTLS; r++ {
		regs = append(regs, r)
	}
	filter := func(locs []Loc) RegSet {
		var s RegSet
		for _, l := range locs {
			if l.Kind == LocReg {
				s = s.With(l.Reg)
			}
		}
		return s
	}
	for op := Op(0); op <= opMax; op++ {
		for _, rd := range regs {
			for _, rs := range regs {
				for _, base := range regs {
					for _, index := range regs {
						in := Inst{Op: op, Rd: rd, Rs: rs, M: Mem{Base: base, Index: index, Scale: 8}}
						if got, want := in.UseRegs(), filter(in.Uses()); got != want {
							t.Fatalf("%v: UseRegs %#x, Uses %v", in, got, in.Uses())
						}
						if got, want := in.DefRegs(), filter(in.Defs()); got != want {
							t.Fatalf("%v: DefRegs %#x, Defs %v", in, got, in.Defs())
						}
					}
				}
			}
		}
	}
}

func TestRegSet(t *testing.T) {
	var s RegSet
	s = s.With(R0).With(RegTLS).With(RegNone).With(R0)
	if !s.Has(R0) || !s.Has(RegTLS) || s.Has(R1) || s.Has(RegNone) || s.Len() != 2 {
		t.Fatalf("set %#x: want {r0, tls}", s)
	}
}

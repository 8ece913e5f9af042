package rules

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"janus/internal/guest"
	"janus/internal/sym"
)

// Wire format:
//
//	header:  magic "JRS1", exe name, exe size, rule count
//	rule:    addr u64, id u16, loopID i32, payload length u32, payload
//
// Payload encodings are per rule ID. Expressions are encoded as
// (const i64, iter i64, nterms u16, {reg u8, coeff i64}...).

const scheduleMagic = "JRS1"

type wr struct{ b bytes.Buffer }

func (w *wr) u8(v uint8)   { w.b.WriteByte(v) }
func (w *wr) u16(v uint16) { _ = binary.Write(&w.b, binary.LittleEndian, v) }
func (w *wr) u32(v uint32) { _ = binary.Write(&w.b, binary.LittleEndian, v) }
func (w *wr) u64(v uint64) { _ = binary.Write(&w.b, binary.LittleEndian, v) }
func (w *wr) i64(v int64)  { w.u64(uint64(v)) }
func (w *wr) str(s string) { w.u32(uint32(len(s))); w.b.WriteString(s) }
func (w *wr) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *wr) expr(e sym.Expr) {
	w.boolean(e.Unknown)
	w.i64(e.Const)
	w.i64(e.Iter)
	regs := make([]guest.Reg, 0, len(e.Regs))
	for r := range e.Regs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	w.u16(uint16(len(regs)))
	for _, r := range regs {
		w.u8(uint8(r))
		w.i64(e.Regs[r])
	}
}

type rd struct {
	b   []byte
	off int
	err error
}

func (r *rd) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("rules: truncated schedule at offset %d", r.off)
		return false
	}
	return true
}

func (r *rd) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rd) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *rd) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rd) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rd) i64() int64 { return int64(r.u64()) }

func (r *rd) str() string {
	n := int(r.u32())
	if !r.need(n) {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *rd) boolean() bool { return r.u8() == 1 }

// Smallest encodings, in bytes, of the elements a schedule counts: a
// rule (address, ID, loop ID, payload length), an expression with no
// terms, one term (register, coefficient), an induction variable
// (register, initial expression, step) and a bounds-check range (write
// flag, base expression, stride, offsets).
const (
	minRule      = 8 + 2 + 4 + 4
	minExpr      = 1 + 8 + 8 + 2
	minTerm      = 1 + 8
	minInduction = 1 + minExpr + 8
	minRange     = 1 + minExpr + 3*8
)

// sized returns an empty slice with room for the n elements the image
// says follow, each at least size bytes long, but for no more than the
// bytes left before end can hold: a count in a corrupted image cannot
// make the decoder allocate more than the image could describe. It
// returns nil when n is 0 or nothing fits.
func sized[T any](r *rd, n, size, end int) []T {
	if n = min(n, (end-r.off)/size); n <= 0 {
		return nil
	}
	return make([]T, 0, n)
}

// reg reads a register operand: a general-purpose register, the TLS
// pseudo-register or RegNone. Anything else would index past a
// context's register file, so it fails the load.
func (r *rd) reg() guest.Reg {
	off := r.off
	reg := guest.Reg(r.u8())
	if r.err == nil && reg > guest.RegTLS && reg != guest.RegNone {
		r.err = fmt.Errorf("rules: bad register %d at offset %d", reg, off)
	}
	return reg
}

func (r *rd) expr() sym.Expr {
	e := sym.Expr{}
	e.Unknown = r.boolean()
	e.Const = r.i64()
	e.Iter = r.i64()
	n := int(r.u16())
	if n > 0 {
		e.Regs = make(map[guest.Reg]int64, min(n, (len(r.b)-r.off)/minTerm))
	}
	for i := 0; i < n && r.err == nil; i++ {
		reg := r.reg()
		coeff := r.i64()
		e.Regs[reg] = coeff
	}
	return e
}

func encodePayload(w *wr, id ID, p Payload) error {
	switch d := p.(type) {
	case nil:
		// no payload
	case LoopInitData:
		w.u16(uint16(len(d.Inductions)))
		for _, iv := range d.Inductions {
			w.u8(uint8(iv.Reg))
			w.expr(iv.Init)
			w.i64(iv.Step)
		}
		w.u16(uint16(len(d.Reductions)))
		for _, rd := range d.Reductions {
			w.u8(uint8(rd.Reg))
			w.u8(uint8(rd.Op))
		}
		w.boolean(d.Trip.Known)
		w.expr(d.Trip.Num)
		w.i64(d.Trip.Den)
		w.u8(uint8(d.Trip.Round))
		w.u8(uint8(d.Policy))
		w.i64(d.ChunkSize)
		w.u64(d.LoopStart)
	case LoopFinishData:
		w.u16(uint16(len(d.Inductions)))
		for _, iv := range d.Inductions {
			w.u8(uint8(iv.Reg))
			w.expr(iv.Init)
			w.i64(iv.Step)
		}
		w.u16(uint16(len(d.Reductions)))
		for _, rd := range d.Reductions {
			w.u8(uint8(rd.Reg))
			w.u8(uint8(rd.Op))
		}
		w.u16(uint16(len(d.LiveOut)))
		for _, reg := range d.LiveOut {
			w.u8(uint8(reg))
		}
	case UpdateBoundData:
		w.u64(d.CmpAddr)
		w.boolean(d.IsImm)
		w.u8(uint8(d.BoundReg))
		w.u8(uint8(d.IVReg))
		w.i64(d.Step)
		w.expr(d.Init)
		w.u8(uint8(d.ExitOp))
	case MemPrivatiseData:
		w.u32(uint32(d.Slot))
		w.i64(d.Size)
		w.expr(d.SharedAddr)
	case MemMainStackData:
	case BoundsCheckData:
		w.u16(uint16(len(d.Ranges)))
		for _, rg := range d.Ranges {
			w.boolean(rg.Write)
			w.expr(rg.Base)
			w.i64(rg.Stride)
			w.i64(rg.LoOff)
			w.i64(rg.HiOff)
		}
	case SpillRegData:
		w.u16(uint16(len(d.Regs)))
		for _, reg := range d.Regs {
			w.u8(uint8(reg))
		}
	case TxData:
		w.u64(d.CallTarget)
	case ThreadData:
		w.u64(d.Target)
	case ProfLoopData, ProfMemData:
	case ProfExcallData:
		w.u64(d.Target)
	default:
		return fmt.Errorf("rules: cannot encode payload %T for %s", p, id)
	}
	return nil
}

func decodePayload(r *rd, id ID, n int) (Payload, error) {
	end := r.off + n
	var p Payload
	switch id {
	case LOOP_INIT:
		var d LoopInitData
		niv := int(r.u16())
		d.Inductions = sized[InductionSpec](r, niv, minInduction, end)
		for i := 0; i < niv && r.err == nil; i++ {
			var iv InductionSpec
			iv.Reg = r.reg()
			iv.Init = r.expr()
			iv.Step = r.i64()
			d.Inductions = append(d.Inductions, iv)
		}
		nred := int(r.u16())
		d.Reductions = sized[ReductionSpec](r, nred, 2, end)
		for i := 0; i < nred && r.err == nil; i++ {
			d.Reductions = append(d.Reductions, ReductionSpec{Reg: r.reg(), Op: guest.Op(r.u8())})
		}
		d.Trip.Known = r.boolean()
		d.Trip.Num = r.expr()
		d.Trip.Den = r.i64()
		d.Trip.Round = sym.RoundMode(r.u8())
		d.Policy = Policy(r.u8())
		d.ChunkSize = r.i64()
		d.LoopStart = r.u64()
		p = d
	case LOOP_FINISH:
		var d LoopFinishData
		niv := int(r.u16())
		d.Inductions = sized[InductionSpec](r, niv, minInduction, end)
		for i := 0; i < niv && r.err == nil; i++ {
			var iv InductionSpec
			iv.Reg = r.reg()
			iv.Init = r.expr()
			iv.Step = r.i64()
			d.Inductions = append(d.Inductions, iv)
		}
		nred := int(r.u16())
		d.Reductions = sized[ReductionSpec](r, nred, 2, end)
		for i := 0; i < nred && r.err == nil; i++ {
			d.Reductions = append(d.Reductions, ReductionSpec{Reg: r.reg(), Op: guest.Op(r.u8())})
		}
		nlo := int(r.u16())
		d.LiveOut = sized[guest.Reg](r, nlo, 1, end)
		for i := 0; i < nlo && r.err == nil; i++ {
			d.LiveOut = append(d.LiveOut, r.reg())
		}
		p = d
	case LOOP_UPDATE_BOUND:
		var d UpdateBoundData
		d.CmpAddr = r.u64()
		d.IsImm = r.boolean()
		d.BoundReg = r.reg()
		d.IVReg = r.reg()
		d.Step = r.i64()
		d.Init = r.expr()
		d.ExitOp = guest.Op(r.u8())
		p = d
	case MEM_PRIVATISE:
		var d MemPrivatiseData
		d.Slot = int32(r.u32())
		d.Size = r.i64()
		d.SharedAddr = r.expr()
		p = d
	case MEM_MAIN_STACK:
		p = MemMainStackData{}
	case MEM_BOUNDS_CHECK:
		var d BoundsCheckData
		nr := int(r.u16())
		d.Ranges = sized[RangeSpec](r, nr, minRange, end)
		for i := 0; i < nr && r.err == nil; i++ {
			var rg RangeSpec
			rg.Write = r.boolean()
			rg.Base = r.expr()
			rg.Stride = r.i64()
			rg.LoOff = r.i64()
			rg.HiOff = r.i64()
			d.Ranges = append(d.Ranges, rg)
		}
		p = d
	case MEM_SPILL_REG, MEM_RECOVER_REG:
		var d SpillRegData
		nr := int(r.u16())
		d.Regs = sized[guest.Reg](r, nr, 1, end)
		for i := 0; i < nr && r.err == nil; i++ {
			d.Regs = append(d.Regs, r.reg())
		}
		p = d
	case TX_START, TX_FINISH:
		var d TxData
		if n > 0 {
			d.CallTarget = r.u64()
		}
		p = d
	case THREAD_SCHEDULE, THREAD_YIELD:
		var d ThreadData
		if n > 0 {
			d.Target = r.u64()
		}
		p = d
	case PROF_LOOP_START, PROF_LOOP_FINISH, PROF_LOOP_ITER:
		p = ProfLoopData{}
	case PROF_MEM_ACCESS:
		p = ProfMemData{}
	case PROF_EXCALL_START, PROF_EXCALL_FINISH:
		var d ProfExcallData
		if n > 0 {
			d.Target = r.u64()
		}
		p = d
	default:
		return nil, fmt.Errorf("rules: unknown rule id %d", id)
	}
	if r.err == nil && r.off != end {
		return nil, fmt.Errorf("rules: payload size mismatch for %s: read %d of %d", id, r.off-(end-n), n)
	}
	return p, r.err
}

// saves counts Save calls (Saves).
var saves atomic.Int64

// Saves reports how many schedules this process has serialised. A
// replayed plan brings its bytes with it, so a render from a warm store
// must leave the count where it was.
func Saves() int64 { return saves.Load() }

// Save serialises the schedule.
func (s *Schedule) Save() ([]byte, error) {
	saves.Add(1)
	w := &wr{}
	w.b.WriteString(scheduleMagic)
	w.str(s.ExeName)
	w.u64(s.ExeSize)
	w.u32(uint32(len(s.Rules)))
	for _, rule := range s.Rules {
		w.u64(rule.Addr)
		w.u16(uint16(rule.ID))
		w.u32(uint32(rule.LoopID))
		pw := &wr{}
		if err := encodePayload(pw, rule.ID, rule.Data); err != nil {
			return nil, err
		}
		w.u32(uint32(pw.b.Len()))
		w.b.Write(pw.b.Bytes())
	}
	return w.b.Bytes(), nil
}

// Load parses a schedule image.
func Load(img []byte) (*Schedule, error) {
	if len(img) < len(scheduleMagic) || string(img[:len(scheduleMagic)]) != scheduleMagic {
		return nil, fmt.Errorf("rules: bad schedule magic")
	}
	r := &rd{b: img, off: len(scheduleMagic)}
	s := &Schedule{}
	s.ExeName = r.str()
	s.ExeSize = r.u64()
	n := int(r.u32())
	s.Rules = sized[Rule](r, n, minRule, len(img))
	for i := 0; i < n && r.err == nil; i++ {
		var rule Rule
		rule.Addr = r.u64()
		rule.ID = ID(r.u16())
		rule.LoopID = int32(r.u32())
		plen := int(r.u32())
		if !r.need(plen) {
			break
		}
		p, err := decodePayload(r, rule.ID, plen)
		if err != nil {
			return nil, err
		}
		rule.Data = p
		s.Rules = append(s.Rules, rule)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(img) {
		// Callers name schedules by the digest of their image, which
		// must therefore be one schedule and nothing else.
		return nil, fmt.Errorf("rules: %d trailing bytes after the last rule", len(img)-r.off)
	}
	return s, nil
}

// Size returns the serialised schedule size in bytes (figure 10).
func (s *Schedule) Size() int {
	img, err := s.Save()
	if err != nil {
		return 0
	}
	return len(img)
}

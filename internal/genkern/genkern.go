// Package genkern is a seeded, deterministic random kernel generator
// and differential-testing harness for the Janus pipeline. It emits
// guest executables through the same obj/asm builders the workload
// suite uses, sweeping the dependence-shape space the static analyser
// and the dependence profiler have to classify: constant- and
// runtime-bound DOALL loops, loop-carried dependences at varying
// distances, must-alias and may-alias pointer patterns, integer and FP
// reductions, nested loops, irregular induction, and syscall/libcall
// bodies. Every generated program ends in a self-checksumming epilogue
// that writes one checksum per mutated array to the output stream, so
// each program is its own output oracle.
//
// The generator records ground truth per emitted loop (keyed by the
// loop's header address, which the analyser rediscovers independently),
// and diff.go cross-checks that truth against the analyser's verdict,
// the profiler's observed dependences, and actual execution under all
// three region-engine configurations. Any disagreement is either a missed
// parallelisation (counted) or a soundness bug (fatal, with a one-line
// repro command naming the seed).
package genkern

import (
	"fmt"
	"math"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/workloads"
)

// rng is a splitmix64 stream: tiny, deterministic, and identical on
// every platform, so a seed names one kernel forever.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(choices ...int64) int64 { return choices[r.intn(len(choices))] }

// SegKind names one generated loop shape.
type SegKind uint8

const (
	// KindDoallConst: dst[i] = src[i]*3+7 over constant bases (type A).
	KindDoallConst SegKind = iota
	// KindDoallRuntime: bases loaded from a pointer table; independent,
	// but only a runtime bounds check can prove it (type C, checked).
	KindDoallRuntime
	// KindCarried: a[i+d] += a[i], a true flow dependence at constant
	// distance d over a constant base (type B).
	KindCarried
	// KindMustAlias: two pointer-table bases that actually alias at
	// byte distance 8*d — a carried dependence static analysis cannot
	// see; only the dependence profiler can (type C demoted to D).
	KindMustAlias
	// KindMayAlias: the same two-pointer shape but genuinely disjoint
	// buffers: independent, check-guarded (type C confirmed).
	KindMayAlias
	// KindIntReduction: integer sum into a register, written via
	// syscall after the loop (type A with a recognised reduction).
	KindIntReduction
	// KindFPReduction: float accumulation (type A; stealing-ineligible).
	KindFPReduction
	// KindNested: row-disjoint two-level nest b[r*C+c] += a[c].
	KindNested
	// KindIrregular: geometric induction i *= 2 (incompatible).
	KindIrregular
	// KindSyscall: IO each iteration (incompatible).
	KindSyscall
	// KindLibcall: DOALL body calling pow through the PLT (type C via
	// speculation).
	KindLibcall
	// KindIndexChase: data-dependent addressing through an index array;
	// statically unanalysable, so the truth depends on whether the
	// generated indices collide (type C or D, speculation-only).
	KindIndexChase
	// KindChecksum: the self-checksum epilogue loops (type A).
	KindChecksum

	numSegKinds = int(KindChecksum) // checksum is never drawn randomly
)

func (k SegKind) String() string {
	switch k {
	case KindDoallConst:
		return "doall-const"
	case KindDoallRuntime:
		return "doall-runtime"
	case KindCarried:
		return "carried"
	case KindMustAlias:
		return "must-alias"
	case KindMayAlias:
		return "may-alias"
	case KindIntReduction:
		return "int-reduction"
	case KindFPReduction:
		return "fp-reduction"
	case KindNested:
		return "nested"
	case KindIrregular:
		return "irregular"
	case KindSyscall:
		return "syscall"
	case KindLibcall:
		return "libcall"
	case KindIndexChase:
		return "index-chase"
	case KindChecksum:
		return "checksum"
	}
	return fmt.Sprintf("segkind(%d)", uint8(k))
}

// Seg is one generated loop segment's shape parameters. Train builds
// use N as-is; ref builds scale N by refScale, keeping the code layout
// (and therefore loop header addresses and IDs) identical.
type Seg struct {
	Kind SegKind
	// N is the train trip count (>= the selection profitability floor).
	N int64
	// Dist is the dependence distance for carried/must-alias shapes.
	Dist int64
	// Arrays is the pointer-table width for runtime-bound shapes.
	Arrays int
	// Inner is the inner trip count for nested shapes.
	Inner int64
	// Collide makes the index-chase indices alias across iterations.
	Collide bool
	// OuterHot puts the profitable trip count on the outer loop of a
	// nest (otherwise the inner loop is the hot one).
	OuterHot bool
}

// Shape is a full kernel blueprint, derived deterministically from the
// seed.
type Shape struct {
	Segs []Seg
}

// LoopTruth is the generator's ground truth for one emitted loop,
// keyed by the loop header address the analyser independently
// rediscovers.
type LoopTruth struct {
	Seg    int
	Kind   SegKind
	Header uint64
	// Carried: a genuine cross-iteration memory dependence exists and
	// manifests on every input the generator builds (train and ref
	// share the dependence structure by construction).
	Carried bool
	// Ambiguous: static analysis cannot fully resolve the addresses
	// (runtime pointer-table bases, data-dependent indices, libcalls),
	// so the loop's fate is decided by profiling/checks/speculation.
	Ambiguous bool
	// Incompatible: the analyser must reject the loop outright
	// (syscalls in the body, non-affine induction).
	Incompatible bool
}

// Kernel is one generated program: matched ref/train builds with
// identical code layout, plus the ground-truth table.
type Kernel struct {
	Seed  uint64
	Name  string
	Shape Shape
	// Ref is the evaluation build, Train the (smaller) profiling build.
	Ref, Train *obj.Executable
	Libs       []*obj.Library
	Truth      []LoopTruth

	byHeader map[uint64]*LoopTruth
	// seedDerived marks kernels whose shape is exactly DeriveShape(Seed),
	// so failure repros can name the seed instead of the genome hex.
	seedDerived bool
}

// TruthByHeader returns the ground truth for the loop whose header
// block starts at addr, or nil.
func (k *Kernel) TruthByHeader(addr uint64) *LoopTruth { return k.byHeader[addr] }

// refScale is the ref-input trip multiplier over train.
const refScale = 2

// minHotTrip keeps hot loops above the selector's profiled
// mean-iteration floor (analyzer.DefaultMinAvgIter) on train inputs.
const minHotTrip = 96

// DeriveShape expands a seed into a kernel blueprint: 1..4 segments
// with independently drawn shape parameters.
func DeriveShape(seed uint64) Shape {
	r := newRng(seed)
	n := 1 + r.intn(4)
	sh := Shape{Segs: make([]Seg, n)}
	for i := range sh.Segs {
		s := Seg{Kind: SegKind(r.intn(numSegKinds))}
		s.N = r.pick(minHotTrip, 128, 160, 224)
		s.Dist = r.pick(1, 2, 3, 5, 8)
		s.Arrays = 2 + r.intn(3)
		s.Collide = r.intn(2) == 1
		s.OuterHot = r.intn(2) == 1
		switch s.Kind {
		case KindNested:
			// One profitable level: either a hot outer loop over short
			// rows, or a short outer loop over hot rows.
			if s.OuterHot {
				s.Inner = r.pick(4, 8, 12)
			} else {
				s.Inner = s.N
				s.N = r.pick(4, 8, 12)
			}
		case KindIrregular:
			s.N = int64(1) << (8 + r.intn(5))
		case KindSyscall:
			s.N = 4 + int64(r.intn(8))
		}
		sh.Segs[i] = s
	}
	return sh
}

// Generate builds the kernel named by seed: ref and train executables
// with identical layout, the ground-truth table, and any libraries the
// program links against. It is exactly
// GenerateShape(DeriveShape(seed), seed) — the seed expands to a shape
// and then only names the input data.
func Generate(seed uint64) (*Kernel, error) {
	return GenerateShape(DeriveShape(seed), seed)
}

// GenerateShape builds the kernel described by shape. The structure
// (segment kinds, trip counts, distances, alias layouts) comes entirely
// from the shape vector; seed names only the generated input data, so
// the fuzzer can hold inputs fixed while mutating structure or vice
// versa. The shape must pass Validate (DecodeShape output always does).
func GenerateShape(shape Shape, seed uint64) (*Kernel, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	seedDerived := shapeEqual(shape, DeriveShape(seed))
	name := fmt.Sprintf("gen/s%d", seed)
	if !seedDerived {
		name = fmt.Sprintf("gen/x%s-s%d", shortShapeID(shape), seed)
	}
	ref, refTruth, libs, err := emit(name, shape, refScale, seed)
	if err != nil {
		return nil, fmt.Errorf("genkern: %s: ref build: %w", name, err)
	}
	train, trainTruth, _, err := emit(name, shape, 1, seed)
	if err != nil {
		return nil, fmt.Errorf("genkern: %s: train build: %w", name, err)
	}
	// The whole differential design rests on train and ref sharing one
	// code layout (loop IDs map across builds); verify it.
	if len(refTruth) != len(trainTruth) {
		return nil, fmt.Errorf("genkern: %s: layout skew: %d ref loops vs %d train", name, len(refTruth), len(trainTruth))
	}
	for i := range refTruth {
		if refTruth[i].Header != trainTruth[i].Header {
			return nil, fmt.Errorf("genkern: %s: loop %d header %#x (ref) vs %#x (train)", name, i, refTruth[i].Header, trainTruth[i].Header)
		}
	}
	k := &Kernel{
		Seed: seed, Name: name, Shape: shape,
		Ref: ref, Train: train, Libs: libs, Truth: refTruth,
		byHeader:    make(map[uint64]*LoopTruth, len(refTruth)),
		seedDerived: seedDerived,
	}
	for i := range k.Truth {
		k.byHeader[k.Truth[i].Header] = &k.Truth[i]
	}
	return k, nil
}

// shortShapeID is a short stable digest of the genome used in kernel
// names (full reproducibility comes from the hex genome in repros).
func shortShapeID(shape Shape) string {
	h := uint64(1469598103934665603)
	for _, b := range EncodeShape(shape) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return fmt.Sprintf("%08x", uint32(h^h>>32))
}

// emitter threads builder state through segment emitters.
type emitter struct {
	b     *asm.Builder
	f     *asm.FuncBuilder
	r     *rng
	seq   int
	seg   int
	truth []LoopTruth
	// sums lists the mutated arrays the epilogue must checksum.
	sums []chkSum
	lib  bool
}

type chkSum struct {
	sym string
	n   int64
}

func emit(name string, shape Shape, scale int64, seed uint64) (*obj.Executable, []LoopTruth, []*obj.Library, error) {
	b := asm.NewBuilder(fmt.Sprintf("%s-x%d", name, scale))
	e := &emitter{b: b, f: b.Func("main"), r: newRng(seed ^ 0xda7a5eed)}
	for i, s := range shape.Segs {
		e.seg = i
		switch s.Kind {
		case KindDoallConst:
			e.doallConst(s.N * scale)
		case KindDoallRuntime:
			e.doallRuntime(s.N*scale, s.Arrays)
		case KindCarried:
			e.carried(s.N*scale, s.Dist)
		case KindMustAlias:
			e.aliasPair(s.N*scale, s.Dist, true)
		case KindMayAlias:
			e.aliasPair(s.N*scale, s.Dist, false)
		case KindIntReduction:
			e.intReduction(s.N * scale)
		case KindFPReduction:
			e.fpReduction(s.N * scale)
		case KindNested:
			e.nested(s.N*scale, s.Inner)
		case KindIrregular:
			e.irregular(s.N * scale)
		case KindSyscall:
			e.syscallLoop(s.N)
		case KindLibcall:
			e.libcall(s.N * scale)
		case KindIndexChase:
			e.indexChase(s.N*scale, s.Collide)
		default:
			return nil, nil, nil, fmt.Errorf("unknown segment kind %v", s.Kind)
		}
	}
	e.epilogue()
	exe, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	exe = exe.Strip()
	var libs []*obj.Library
	if e.lib {
		libs = append(libs, workloads.MathLib())
	}
	return exe, e.truth, libs, nil
}

func (e *emitter) sym(prefix string) string {
	e.seq++
	return fmt.Sprintf("g%s_%d", prefix, e.seq)
}

// headerAddr is the address the next emitted instruction will occupy.
// main is the first function laid out, so item index maps directly to
// codeBase + index*InstSize; called right after Bind(loop) it yields
// the loop header address cfg.Build will rediscover.
func (e *emitter) headerAddr() uint64 {
	return obj.DefaultCodeBase + uint64(e.f.Len())*guest.InstSize
}

func (e *emitter) record(kind SegKind, carried, ambiguous, incompatible bool) {
	e.truth = append(e.truth, LoopTruth{
		Seg: e.seg, Kind: kind, Header: e.headerAddr(),
		Carried: carried, Ambiguous: ambiguous, Incompatible: incompatible,
	})
}

// counting emits the canonical for (iv = 0; iv < n; iv++) skeleton and
// records ground truth for the loop at its header.
func (e *emitter) counting(iv guest.Reg, n int64, kind SegKind, carried, ambiguous, incompatible bool, body func()) {
	f := e.f
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(iv, 0)
	f.Bind(loop)
	e.record(kind, carried, ambiguous, incompatible)
	f.Cmpi(iv, n)
	f.J(guest.JGE, done)
	body()
	f.OpI(guest.ADDI, iv, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
}

// dataI64 seeds an integer array with rng-derived values so results
// feed the checksum and memory-hash oracles non-trivially.
func (e *emitter) dataI64(name string, n int64) {
	m := int64(e.r.next()%251 + 3)
	e.b.DataWords(name, int(n), func(i int) uint64 { return uint64(int64(i)*m%1021 + 1) })
}

func (e *emitter) dataF64(name string, n int64) {
	m := float64(e.r.next()%97+1) * 0.0625
	e.b.DataWords(name, int(n), func(i int) uint64 { return math.Float64bits(float64(i%911)*m + 0.5) })
}

// doallConst: dst[i] = src[i]*3 + 7 over constant bases. Type A.
func (e *emitter) doallConst(n int64) {
	src, dst := e.sym("src"), e.sym("dst")
	e.dataI64(src, n)
	e.b.Data(dst, int(n*8))
	f := e.f
	f.MoviData(guest.R8, src, 0)
	f.MoviData(guest.R9, dst, 0)
	e.counting(guest.R1, n, KindDoallConst, false, false, false, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.OpI(guest.IMULI, guest.R3, 3)
		f.OpI(guest.ADDI, guest.R3, 7)
		f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R3)
	})
	e.sums = append(e.sums, chkSum{dst, n})
}

// doallRuntime: nArrays bases loaded from a pointer table; the last is
// the destination. Independent, but provable only at runtime (type C
// with bounds checks).
func (e *emitter) doallRuntime(n int64, nArrays int) {
	if nArrays < 2 {
		nArrays = 2
	}
	bufs, ptrs := e.sym("bufs"), e.sym("ptrs")
	e.b.Data(bufs, int(n*8)*nArrays)
	e.b.Data(ptrs, 8*nArrays)
	f := e.f
	for i := 0; i < nArrays; i++ {
		f.MoviData(guest.R2, bufs, int64(i)*n*8)
		f.StData(ptrs, int64(i)*8, guest.R2)
	}
	regs := []guest.Reg{guest.R8, guest.R9, guest.R10, guest.R11}
	if nArrays > len(regs) {
		nArrays = len(regs)
	}
	for i := 0; i < nArrays; i++ {
		f.LdData(regs[i], ptrs, int64(i)*8)
	}
	e.counting(guest.R1, n, KindDoallRuntime, false, true, false, func() {
		f.Movi(guest.R3, 1)
		for i := 0; i < nArrays-1; i++ {
			f.Ld(guest.R4, guest.Mem{Base: regs[i], Index: guest.R1, Scale: 8})
			f.Op(guest.ADD, guest.R3, guest.R4)
		}
		f.St(guest.Mem{Base: regs[nArrays-1], Index: guest.R1, Scale: 8}, guest.R3)
	})
	e.sums = append(e.sums, chkSum{bufs, n * int64(nArrays)})
}

// carried: a[i+d] = a[i+d] + a[i], a true flow dependence at constant
// distance d the analyser must prove. Type B.
func (e *emitter) carried(n, d int64) {
	a := e.sym("car")
	e.dataI64(a, n+d)
	f := e.f
	f.MoviData(guest.R8, a, 0)
	e.counting(guest.R1, n, KindCarried, true, false, false, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.Ld(guest.R4, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8 * d})
		f.Op(guest.ADD, guest.R4, guest.R3)
		f.St(guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8 * d}, guest.R4)
	})
	e.sums = append(e.sums, chkSum{a, n + d})
}

// aliasPair: read through one pointer-table base, write through
// another. With must=true the second pointer is the first plus 8*d
// bytes — a hidden carried dependence only profiling can observe; with
// must=false the buffers are disjoint and the loop is independent.
// Both are statically ambiguous (type C; must-alias demotes to D).
func (e *emitter) aliasPair(n, d int64, must bool) {
	ptrs := e.sym("aptr")
	bufA := e.sym("abuf")
	e.dataI64(bufA, n+d)
	var bufB string
	if !must {
		bufB = e.sym("bbuf")
		e.b.Data(bufB, int(n*8))
	}
	e.b.Data(ptrs, 16)
	f := e.f
	f.MoviData(guest.R2, bufA, 0)
	f.StData(ptrs, 0, guest.R2)
	if must {
		f.MoviData(guest.R2, bufA, 8*d)
	} else {
		f.MoviData(guest.R2, bufB, 0)
	}
	f.StData(ptrs, 8, guest.R2)
	f.LdData(guest.R8, ptrs, 0)
	f.LdData(guest.R9, ptrs, 8)
	e.counting(guest.R1, n, KindMustAlias, must, true, false, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.OpI(guest.IMULI, guest.R3, 5)
		f.OpI(guest.ADDI, guest.R3, 1)
		f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}, guest.R3)
	})
	if must {
		e.truth[len(e.truth)-1].Kind = KindMustAlias
		e.sums = append(e.sums, chkSum{bufA, n + d})
	} else {
		e.truth[len(e.truth)-1].Kind = KindMayAlias
		e.sums = append(e.sums, chkSum{bufB, n})
	}
}

// intReduction: sum a[i] into a register, write the total out. Type A
// with a recognised integer reduction (work-stealing eligible).
func (e *emitter) intReduction(n int64) {
	a := e.sym("ired")
	e.dataI64(a, n)
	f := e.f
	f.MoviData(guest.R8, a, 0)
	f.Movi(guest.R2, 0)
	e.counting(guest.R1, n, KindIntReduction, false, false, false, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.Op(guest.ADD, guest.R2, guest.R3)
	})
	f.Movi(guest.R0, guest.SysWrite)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
}

// fpReduction: float accumulation (type A; excluded from stealing).
func (e *emitter) fpReduction(n int64) {
	a := e.sym("fred")
	e.dataF64(a, n)
	f := e.f
	f.MoviData(guest.R8, a, 0)
	f.Movi(guest.R2, 0)
	e.counting(guest.R1, n, KindFPReduction, false, false, false, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.Op(guest.FADD, guest.R2, guest.R3)
	})
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
}

// nested: b[r*inner+c] += a[c]. Rows are disjoint, so both levels are
// truly independent; the flat-index address defeats exact static
// grouping at the outer level (ambiguous there).
func (e *emitter) nested(outer, inner int64) {
	a, bb := e.sym("na"), e.sym("nb")
	e.dataI64(a, inner)
	e.b.Data(bb, int(outer*inner*8))
	f := e.f
	f.MoviData(guest.R8, a, 0)
	f.MoviData(guest.R9, bb, 0)
	e.counting(guest.R6, outer, KindNested, false, true, false, func() {
		f.Mov(guest.R7, guest.R6)
		f.OpI(guest.IMULI, guest.R7, inner)
		f.Lea(guest.R5, guest.Mem{Base: guest.R9, Index: guest.R7, Scale: 8})
		e.counting(guest.R1, inner, KindNested, false, true, false, func() {
			f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
			f.Ld(guest.R4, guest.Mem{Base: guest.R5, Index: guest.R1, Scale: 8})
			f.Op(guest.ADD, guest.R4, guest.R3)
			f.St(guest.Mem{Base: guest.R5, Index: guest.R1, Scale: 8}, guest.R4)
		})
	})
	e.sums = append(e.sums, chkSum{bb, outer * inner})
}

// irregular: geometric induction i *= 2 — no affine closed form, so
// the analyser must reject it (incompatible).
func (e *emitter) irregular(n int64) {
	a := e.sym("irr")
	e.b.Data(a, int((n+1)*8))
	f := e.f
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, a, 0)
	f.Movi(guest.R1, 1)
	f.Bind(loop)
	e.record(KindIrregular, false, false, true)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.St(guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8}, guest.R1)
	f.OpI(guest.SHLI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
	e.sums = append(e.sums, chkSum{a, n + 1})
}

// syscallLoop: IO each iteration — incompatible, and an ordering
// oracle: parallelising it would scramble the output stream.
func (e *emitter) syscallLoop(n int64) {
	f := e.f
	e.counting(guest.R6, n, KindSyscall, false, false, true, func() {
		f.Movi(guest.R0, guest.SysWrite)
		f.Mov(guest.R1, guest.R6)
		f.Syscall()
	})
}

// libcall: DOALL body calling pow through the PLT; speculation guards
// each call (type C).
func (e *emitter) libcall(n int64) {
	e.lib = true
	e.b.Import("pow")
	src, dst := e.sym("lsrc"), e.sym("ldst")
	e.dataF64(src, n)
	e.b.Data(dst, int(n*8))
	f := e.f
	f.MoviData(guest.R8, src, 0)
	f.MoviData(guest.R9, dst, 0)
	e.counting(guest.R6, n, KindLibcall, false, true, false, func() {
		f.Ld(guest.R1, guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8})
		f.MoviF(guest.R2, 1.5)
		f.Call("pow")
		f.St(guest.Mem{Base: guest.R9, Index: guest.R6, Scale: 8}, guest.R0)
	})
	e.sums = append(e.sums, chkSum{dst, n})
}

// indexChase: data[idx[i]] += 3 — data-dependent addressing the
// analyser cannot canonicalise. With collide, odd iterations alias the
// previous iteration's slot (a real dependence only profiling sees);
// without, idx is the identity and the loop is independent.
func (e *emitter) indexChase(n int64, collide bool) {
	idx, data := e.sym("idx"), e.sym("chase")
	e.b.DataWords(idx, int(n), func(i int) uint64 {
		if collide && i%2 == 1 {
			return uint64(i - 1)
		}
		return uint64(i)
	})
	e.b.Data(data, int(n*8))
	f := e.f
	f.MoviData(guest.R8, idx, 0)
	f.MoviData(guest.R9, data, 0)
	e.counting(guest.R1, n, KindIndexChase, collide, true, false, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.Lea(guest.R4, guest.Mem{Base: guest.R9, Index: guest.R3, Scale: 8})
		f.Ld(guest.R5, guest.Mem{Base: guest.R4, Index: guest.RegNone, Scale: 1})
		f.OpI(guest.ADDI, guest.R5, 3)
		f.St(guest.Mem{Base: guest.R4, Index: guest.RegNone, Scale: 1}, guest.R5)
	})
	e.sums = append(e.sums, chkSum{data, n})
}

// epilogue emits one checksum loop per mutated array (raw 64-bit adds,
// deterministic for float payloads too) followed by exit. Every
// checksum is written to the output stream, making the program its own
// oracle under output comparison.
func (e *emitter) epilogue() {
	f := e.f
	for _, c := range e.sums {
		f.MoviData(guest.R8, c.sym, 0)
		f.Movi(guest.R2, 0)
		e.counting(guest.R1, c.n, KindChecksum, false, false, false, func() {
			f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
			f.Op(guest.ADD, guest.R2, guest.R3)
		})
		f.Movi(guest.R0, guest.SysWrite)
		f.Mov(guest.R1, guest.R2)
		f.Syscall()
	}
	f.Movi(guest.R0, guest.SysExit)
	f.Movi(guest.R1, 0)
	f.Syscall()
}

// Package workloads builds the synthetic SPEC CPU2006-like benchmark
// binaries the evaluation runs on. Each benchmark is assembled from a
// library of loop kernels whose analysability classes mirror the loop
// mixes the paper reports per benchmark (figure 6): static DOALL
// kernels, runtime-pointer kernels needing bounds checks, loop-carried
// stencils, pointer-chasing loops whose behaviour only profiling can
// classify, irregular loops the analyser rejects, and hot loops with
// shared-library calls that demand speculation.
//
// Absolute performance does not (and cannot) match the paper's Xeon;
// the structural features that drive the paper's relative results —
// coverage fractions, check counts, iteration granularity, translation
// footprint — are reproduced per benchmark in bench.go.
package workloads

import (
	"fmt"
	"math"

	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// Input selects the profiling (train) or evaluation (ref) input size.
type Input int

const (
	// Train is the profiling input (paper: SPEC train set).
	Train Input = iota
	// Ref is the evaluation input (paper: SPEC reference set).
	Ref
)

func (in Input) String() string {
	if in == Train {
		return "train"
	}
	return "ref"
}

// OptLevel mirrors the compiler configurations of figure 12.
type OptLevel int

const (
	// O2: plain scalar loops.
	O2 OptLevel = iota
	// O3: inner loops unrolled by 2 (SSE-era generic vectorisation is
	// modelled as unrolling: wider work per iteration).
	O3
	// O3AVX: unrolled by 4 with packed vector instructions and an
	// alignment-peeling prologue that complicates alias analysis.
	O3AVX
)

func (o OptLevel) String() string {
	switch o {
	case O2:
		return "O2"
	case O3AVX:
		return "O3avx"
	}
	return "O3"
}

// kctx threads builder state through kernel emitters.
type kctx struct {
	b   *asm.Builder
	f   *asm.FuncBuilder
	opt OptLevel
	// seq disambiguates data symbol names.
	seq int
}

func (k *kctx) sym(prefix string) string {
	k.seq++
	return fmt.Sprintf("%s_%d", prefix, k.seq)
}

// dataI64 reserves a seeded integer array so kernels compute on
// non-trivial values (results feed the verification memory hash).
func (k *kctx) dataI64(name string, n int64) {
	k.b.DataWords(name, int(n), func(i int) uint64 { return uint64(int64(i)*2654435761%1009 + 1) })
}

// dataF64 reserves a seeded float array.
func (k *kctx) dataF64(name string, n int64) {
	k.b.DataWords(name, int(n), func(i int) uint64 { return math.Float64bits(float64(i%977)*0.125 + 0.5) })
}

// counting emits the standard loop skeleton
//
//	for (iv = 0; iv < n; iv += step) { body() }
//
// using iv as the induction register.
func (k *kctx) counting(iv guest.Reg, n, step int64, body func()) {
	f := k.f
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(iv, 0)
	f.Bind(loop)
	f.Cmpi(iv, n)
	f.J(guest.JGE, done)
	body()
	f.OpI(guest.ADDI, iv, step)
	f.J(guest.JMP, loop)
	f.Bind(done)
}

// doallConst emits a static-DOALL kernel over two fresh constant-base
// arrays: dst[i] = src[i]*3 + 7. Returns the dst symbol. Unrolling per
// OptLevel widens the per-iteration work exactly as a compiler would.
func (k *kctx) doallConst(n int64) string {
	src, dst := k.sym("src"), k.sym("dst")
	k.dataI64(src, n)
	k.b.Data(dst, int(n*8))
	f := k.f
	f.MoviData(guest.R8, src, 0)
	f.MoviData(guest.R9, dst, 0)
	unroll := int64(1)
	if k.opt == O3 {
		unroll = 2
	}
	if k.opt == O3AVX {
		unroll = 4
	}
	k.counting(guest.R1, n, unroll, func() {
		for u := int64(0); u < unroll; u++ {
			f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8 * u})
			f.OpI(guest.IMULI, guest.R3, 3)
			f.OpI(guest.ADDI, guest.R3, 7)
			f.St(guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8, Disp: 8 * u}, guest.R3)
		}
	})
	return dst
}

// doallFloatStream emits the lbm-like stream kernel: three constant-
// base arrays, c[i] = a[i]*w + b[i] in float arithmetic.
func (k *kctx) doallFloatStream(n int64) {
	a, bsym, c := k.sym("fa"), k.sym("fb"), k.sym("fc")
	k.dataF64(a, n)
	k.dataF64(bsym, n)
	k.b.Data(c, int(n*8))
	f := k.f
	f.MoviData(guest.R8, a, 0)
	f.MoviData(guest.R9, bsym, 0)
	f.MoviData(guest.R10, c, 0)
	f.MoviF(guest.R11, 0.75)
	if k.opt == O3AVX {
		// Packed vector body with a scalar peeling prologue (alignment
		// peel): the peel duplicates the loop and defeats the analyser's
		// uniform-stride grouping for the peeled copy.
		f.I(guest.NewInst(guest.VBCST, 2, guest.R11))
		k.counting(guest.R1, n&^3, 4, func() {
			f.I(guest.NewInstM(guest.VLD, 0, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8}))
			f.I(guest.NewInstM(guest.VLD, 1, guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8}))
			f.I(guest.NewInst(guest.VMUL, 0, 2))
			f.I(guest.NewInst(guest.VADD, 0, 1))
			f.I(guest.NewInstM(guest.VST, 0, guest.Mem{Base: guest.R10, Index: guest.R1, Scale: 8}))
		})
		// Scalar epilogue for the ragged tail.
		k.scalarStreamTail(n&^3, n)
		return
	}
	unroll := int64(1)
	if k.opt == O3 {
		unroll = 2
	}
	k.counting(guest.R1, n, unroll, func() {
		for u := int64(0); u < unroll; u++ {
			f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8 * u})
			f.Ld(guest.R4, guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8, Disp: 8 * u})
			f.Op(guest.FMUL, guest.R3, guest.R11)
			f.Op(guest.FADD, guest.R3, guest.R4)
			f.St(guest.Mem{Base: guest.R10, Index: guest.R1, Scale: 8, Disp: 8 * u}, guest.R3)
		}
	})
}

func (k *kctx) scalarStreamTail(from, to int64) {
	f := k.f
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(guest.R1, from)
	f.Bind(loop)
	f.Cmpi(guest.R1, to)
	f.J(guest.JGE, done)
	f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
	f.Ld(guest.R4, guest.Mem{Base: guest.R9, Index: guest.R1, Scale: 8})
	f.Op(guest.FMUL, guest.R3, guest.R11)
	f.Op(guest.FADD, guest.R3, guest.R4)
	f.St(guest.Mem{Base: guest.R10, Index: guest.R1, Scale: 8}, guest.R3)
	f.OpI(guest.ADDI, guest.R1, 1)
	f.J(guest.JMP, loop)
	f.Bind(done)
}

// doallRuntime emits a dynamic-DOALL kernel: nArrays array bases are
// loaded from a pointer table (opaque to static analysis), so the loop
// needs a MEM_BOUNDS_CHECK over nArrays ranges. dst[i] = sum of
// srcs[i]. This is the milc/GemsFDTD/cactusADM shape; nArrays controls
// the Table-I check count.
func (k *kctx) doallRuntime(n int64, nArrays int) {
	if nArrays < 2 {
		nArrays = 2
	}
	bufs := k.sym("bufs")
	ptrs := k.sym("ptrs")
	k.b.Data(bufs, int(n*8)*nArrays)
	k.b.Data(ptrs, 8*nArrays)
	f := k.f
	// Fill the pointer table (runtime values).
	for i := 0; i < nArrays; i++ {
		f.MoviData(guest.R2, bufs, int64(i)*n*8)
		f.StData(ptrs, int64(i)*8, guest.R2)
	}
	// Load bases into registers r8.. (last one is the destination).
	regs := []guest.Reg{guest.R8, guest.R9, guest.R10, guest.R11, guest.R12, guest.R13}
	use := nArrays
	if use > len(regs) {
		use = len(regs)
	}
	for i := 0; i < use; i++ {
		f.LdData(regs[i], ptrs, int64(i)*8)
	}
	k.counting(guest.R1, n, 1, func() {
		f.Movi(guest.R3, 1)
		for i := 0; i < use-1; i++ {
			f.Ld(guest.R4, guest.Mem{Base: regs[i], Index: guest.R1, Scale: 8})
			f.Op(guest.ADD, guest.R3, guest.R4)
		}
		f.St(guest.Mem{Base: regs[use-1], Index: guest.R1, Scale: 8}, guest.R3)
	})
}

// carriedStencil emits a type-B kernel: a[i] = a[i-1] + a[i], a genuine
// loop-carried flow dependence the analyser must prove.
func (k *kctx) carriedStencil(n int64) {
	a := k.sym("stencil")
	k.dataI64(a, n+1)
	f := k.f
	f.MoviData(guest.R8, a, 0)
	k.counting(guest.R1, n, 1, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})          // a[i]
		f.Ld(guest.R4, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8}) // a[i+1]
		f.Op(guest.ADD, guest.R4, guest.R3)
		f.St(guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8, Disp: 8}, guest.R4)
	})
}

// pointerChase emits a loop whose addresses are data-dependent
// (indirection through an index array): statically unanalysable, so
// classification depends on dependence profiling. With permuted=false
// the index array is the identity, so no dependence manifests (type C
// but speculation-only: no check possible); with aliasing=true indices
// collide across iterations (type D).
func (k *kctx) pointerChase(n int64, aliasing bool) {
	idx := k.sym("idx")
	data := k.sym("chase")
	k.b.DataWords(idx, int(n), func(i int) uint64 {
		if aliasing && i%2 == 1 {
			return uint64(i - 1) // collide with previous iteration
		}
		return uint64(i)
	})
	k.b.Data(data, int(n*8))
	f := k.f
	f.MoviData(guest.R8, idx, 0)
	f.MoviData(guest.R9, data, 0)
	k.counting(guest.R1, n, 1, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8}) // j = idx[i]
		f.Lea(guest.R4, guest.Mem{Base: guest.R9, Index: guest.R3, Scale: 8})
		f.Ld(guest.R5, guest.Mem{Base: guest.R4, Index: guest.RegNone, Scale: 1}) // data[j]
		f.OpI(guest.ADDI, guest.R5, 3)
		f.St(guest.Mem{Base: guest.R4, Index: guest.RegNone, Scale: 1}, guest.R5) // data[j] = ...
	})
}

// irregular emits a loop the analyser rejects: the induction variable
// advances geometrically (i *= 2), which has no linear closed form.
func (k *kctx) irregular(n int64) {
	a := k.sym("irr")
	k.b.Data(a, int((n+1)*8))
	f := k.f
	loop, done := f.NewLabel(), f.NewLabel()
	f.MoviData(guest.R8, a, 0)
	f.Movi(guest.R1, 1)
	f.Bind(loop)
	f.Cmpi(guest.R1, n)
	f.J(guest.JGE, done)
	f.St(guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8}, guest.R1)
	f.OpI(guest.SHLI, guest.R1, 1) // i *= 2: not an affine induction
	f.J(guest.JMP, loop)
	f.Bind(done)
}

// ioLoop emits an incompatible loop performing IO each iteration.
func (k *kctx) ioLoop(n int64) {
	f := k.f
	k.counting(guest.R6, n, 1, func() {
		f.Movi(guest.R0, guest.SysWrite)
		f.Mov(guest.R1, guest.R6)
		f.Syscall()
	})
}

// reduction emits a float sum over a constant-base array, returning the
// result in R2 and writing it out.
func (k *kctx) reduction(n int64) {
	a := k.sym("red")
	k.dataF64(a, n)
	f := k.f
	f.MoviData(guest.R8, a, 0)
	f.Movi(guest.R2, 0)
	k.counting(guest.R1, n, 1, func() {
		f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
		f.Op(guest.FADD, guest.R2, guest.R3)
	})
	f.Movi(guest.R0, guest.SysWriteF)
	f.Mov(guest.R1, guest.R2)
	f.Syscall()
}

// libCallLoop emits the bwaves shape: a hot DOALL loop whose body calls
// the shared-library `pow` through the PLT. The static analyser cannot
// see the library, so speculation guards each call.
func (k *kctx) libCallLoop(n int64, fn string) {
	k.b.Import(fn)
	src, dst := k.sym("lsrc"), k.sym("ldst")
	k.dataF64(src, n)
	k.b.Data(dst, int(n*8))
	f := k.f
	f.MoviData(guest.R8, src, 0)
	f.MoviData(guest.R9, dst, 0)
	k.counting(guest.R6, n, 1, func() {
		f.Ld(guest.R1, guest.Mem{Base: guest.R8, Index: guest.R6, Scale: 8})
		f.MoviF(guest.R2, 1.5)
		f.Call(fn)
		f.St(guest.Mem{Base: guest.R9, Index: guest.R6, Scale: 8}, guest.R0)
	})
}

// smallLoops emits outer×inner nests where the inner loop has very few
// iterations: statically parallel but unprofitable (the leslie3d/milc
// failure mode — per-invocation overhead dwarfs the work).
func (k *kctx) smallLoops(outer, inner int64) {
	a := k.sym("small")
	k.dataI64(a, inner)
	f := k.f
	f.MoviData(guest.R8, a, 0)
	k.counting(guest.R6, outer, 1, func() {
		k.counting(guest.R1, inner, 1, func() {
			f.Ld(guest.R3, guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8})
			f.OpI(guest.ADDI, guest.R3, 1)
			f.St(guest.Mem{Base: guest.R8, Index: guest.R1, Scale: 8}, guest.R3)
		})
	})
}

// coldCode emits nBlocks distinct rarely-executed basic blocks reached
// through a dispatch ladder: the h264ref shape where DBM translation
// overhead dominates because much code executes only a handful of
// times.
func (k *kctx) coldCode(nBlocks int, reps int64) {
	f := k.f
	a := k.sym("cold")
	k.b.Data(a, 8)
	k.counting(guest.R6, reps, 1, func() {
		// Dispatch on r6 % nBlocks through a compare ladder; each arm
		// is a distinct block.
		f.Mov(guest.R2, guest.R6)
		f.Movi(guest.R3, int64(nBlocks))
		f.Mov(guest.R4, guest.R2)
		f.Op(guest.IDIV, guest.R4, guest.R3)
		f.OpI(guest.IMULI, guest.R4, int64(nBlocks))
		f.Op(guest.SUB, guest.R2, guest.R4) // r2 = r6 % nBlocks
		done := f.NewLabel()
		for i := 0; i < nBlocks; i++ {
			next := f.NewLabel()
			f.Cmpi(guest.R2, int64(i))
			f.J(guest.JNE, next)
			f.OpI(guest.ADDI, guest.R5, int64(i+1))
			f.OpI(guest.XORI, guest.R5, int64(3*i+1))
			f.J(guest.JMP, done)
			f.Bind(next)
		}
		f.Bind(done)
	})
	f.StData(a, 0, guest.R5)
}

// exit terminates the program.
func (k *kctx) exit() {
	f := k.f
	f.Movi(guest.R0, guest.SysExit)
	f.Movi(guest.R1, 0)
	f.Syscall()
}

// MathLib builds the shared libm-like library (pow, fsq) mapped at the
// default library base.
func MathLib() *obj.Library {
	lb := asm.NewBuilder("libm")
	// pow(x=r1, y=r2) ≈ exp-free synthetic pow: x*x*y + x (deterministic
	// stand-in with the same call/return and register behaviour; the
	// paper's observation is that the call reads heap rarely and writes
	// never).
	pw := lb.Func("pow")
	pw.Mov(guest.R0, guest.R1)
	// Polynomial-approximation body: ~45 instructions per call, matching
	// the paper's observation of 49 instructions inside bwaves' pow.
	for i := 0; i < 10; i++ {
		pw.Op(guest.FMUL, guest.R0, guest.R1)
		pw.Op(guest.FADD, guest.R0, guest.R2)
		pw.Op(guest.FMUL, guest.R0, guest.R2)
		pw.Op(guest.FADD, guest.R0, guest.R1)
	}
	pw.Ret()
	sq := lb.Func("fsq")
	sq.Mov(guest.R0, guest.R1)
	sq.Op(guest.FMUL, guest.R0, guest.R1)
	sq.Ret()
	lib, err := lb.BuildLibrary(obj.DefaultLibBase)
	if err != nil {
		panic("workloads: libm build: " + err.Error())
	}
	return lib
}

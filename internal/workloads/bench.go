package workloads

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"janus/internal/artcache"
	"janus/internal/asm"
	"janus/internal/guest"
	"janus/internal/obj"
)

// Benchmark describes one synthetic SPEC-like workload: how to build it
// and the paper-reported reference values EXPERIMENTS.md compares
// against.
type Benchmark struct {
	Name string
	// Parallelisable marks the nine figure-7 benchmarks.
	Parallelisable bool
	// PaperSpeedup8T is the paper's figure-7 Janus bar (approximate,
	// read from the plot); 0 when the benchmark is not in figure 7.
	PaperSpeedup8T float64
	// PaperChecks is Table I's array-bounds checks per loop (0 = none
	// reported).
	PaperChecks float64
	// build emits the program. Sizes derive from input and opt.
	build func(k *kctx, in Input)
}

// scale maps the input set to a size multiplier.
func scale(in Input) int64 {
	if in == Train {
		return 2
	}
	return 10
}

// registry lists all 25 benchmarks (SPEC CPU2006 minus omnetpp, tonto,
// wrf, exactly as the paper evaluates). The kernel mixes follow the
// per-benchmark characterisation in the paper's figure 6 and §III.
var registry = []Benchmark{
	// ---- The nine parallelisable benchmarks (figure 7). ----
	{
		Name: "410.bwaves", Parallelisable: true,
		PaperSpeedup8T: 2.8, PaperChecks: 1,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Hot DOALL loop with a pow() PLT call: speculation required.
			k.libCallLoop(520*s, "pow")
			// A checked two-array kernel (1 check per loop).
			k.doallRuntime(1600*s, 2)
			k.doallFloatStream(1600 * s)
			k.reduction(400 * s)
			k.carriedStencil(700 * s)
		},
	},
	{
		Name: "433.milc", Parallelisable: true,
		PaperSpeedup8T: 1.0, PaperChecks: 12,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Many short checked loops (12 bases) + much sequential code:
			// init/finish overhead dominates (paper: low speedup).
			for i := 0; i < 4; i++ {
				k.doallRuntime(420*s, 6)
			}
			k.smallLoops(60*s, 64)
			k.reduction(256 * s)
			k.carriedStencil(256 * s)
			k.pointerChase(128*s, false)
		},
	},
	{
		Name: "436.cactusADM", Parallelisable: true,
		PaperSpeedup8T: 1.6, PaperChecks: 3,
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.doallRuntime(2400*s, 3)
			k.doallFloatStream(1200 * s)
			k.smallLoops(24*s, 64)
			k.irregular(1 << 12)
		},
	},
	{
		Name: "437.leslie3d", Parallelisable: true,
		PaperSpeedup8T: 0.95,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Low-iteration-count candidates: parallelisation barely pays.
			k.smallLoops(120*s, 64)
			k.doallConst(560 * s)
			k.carriedStencil(320 * s)
			k.irregular(1 << 13)
			k.pointerChase(96*s, true)
		},
	},
	{
		Name: "459.GemsFDTD", Parallelisable: true,
		PaperSpeedup8T: 1.7, PaperChecks: 19.5,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Many-array field updates: large check counts, plus a cold
			// translation footprint.
			for i := 0; i < 3; i++ {
				k.doallRuntime(1200*s, 6)
			}
			k.coldCode(48, 160*s)
			k.doallFloatStream(640 * s)
			k.carriedStencil(900 * s)
		},
	},
	{
		Name: "462.libquantum", Parallelisable: true,
		PaperSpeedup8T: 6.0,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Gate application over the state vector: one giant static
			// DOALL loop is nearly the whole program (paper: 6.0x).
			k.doallConst(32000 * s)
			k.doallConst(32000 * s)
			k.reduction(800 * s)
		},
	},
	{
		Name: "464.h264ref", Parallelisable: true,
		PaperSpeedup8T: 0.76,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Translation-heavy: large cold-code footprint, modest DOALL.
			k.coldCode(96, 64*s)
			k.doallConst(800 * s)
			k.pointerChase(160*s, true)
			k.irregular(1 << 13)
			k.smallLoops(16*s, 48)
		},
	},
	{
		Name: "470.lbm", Parallelisable: true,
		PaperSpeedup8T: 5.8,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Stream-collide: 98% of execution in one DOALL nest.
			k.doallFloatStream(20000 * s)
			k.doallFloatStream(20000 * s)
			k.doallConst(4000 * s)
		},
	},
	{
		Name: "482.sphinx3", Parallelisable: true,
		PaperSpeedup8T: 1.3,
		build: func(k *kctx, in Input) {
			s := scale(in)
			// Moderate DOALL fraction, large sequential remainder.
			k.doallFloatStream(1600 * s)
			k.reduction(1600 * s)
			k.carriedStencil(1600 * s)
			k.pointerChase(800*s, false)
			k.smallLoops(48*s, 48)
		},
	},

	// ---- The sixteen figure-6-only benchmarks. ----
	{
		Name: "400.perlbench",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.pointerChase(400*s, true)
			k.irregular(1 << 12)
			k.coldCode(64, 32*s)
			k.doallConst(128 * s)
			k.ioLoop(8)
		},
	},
	{
		Name: "401.bzip2",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.carriedStencil(1200 * s)
			k.pointerChase(600*s, true)
			k.doallConst(300 * s)
			k.irregular(1 << 12)
		},
	},
	{
		Name: "403.gcc",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.coldCode(128, 24*s)
			k.pointerChase(320*s, true)
			k.irregular(1 << 11)
			k.doallConst(96 * s)
			k.ioLoop(4)
		},
	},
	{
		Name: "429.mcf",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.pointerChase(1000*s, true)
			k.carriedStencil(400 * s)
			k.doallConst(160 * s)
		},
	},
	{
		Name: "434.zeusmp",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.doallFloatStream(1000 * s)
			k.carriedStencil(800 * s)
			k.doallRuntime(320*s, 4)
			k.irregular(1 << 12)
		},
	},
	{
		Name: "435.gromacs",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.reduction(800 * s)
			k.pointerChase(500*s, false)
			k.carriedStencil(500 * s)
			k.smallLoops(32*s, 48)
		},
	},
	{
		Name: "444.namd",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.irregular(1 << 13)
			k.pointerChase(700*s, false)
			k.reduction(500 * s)
			k.coldCode(40, 40*s)
		},
	},
	{
		Name: "445.gobmk",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.coldCode(96, 24*s)
			k.pointerChase(320*s, true)
			k.irregular(1 << 11)
			k.doallConst(80 * s)
		},
	},
	{
		Name: "447.dealII",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.pointerChase(480*s, true)
			k.doallRuntime(240*s, 3)
			k.carriedStencil(320 * s)
			k.irregular(1 << 12)
		},
	},
	{
		Name: "450.soplex",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.pointerChase(560*s, true)
			k.carriedStencil(480 * s)
			k.doallConst(160 * s)
			k.smallLoops(24*s, 48)
		},
	},
	{
		Name: "453.povray",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.coldCode(72, 32*s)
			k.reduction(400 * s)
			k.pointerChase(320*s, true)
			k.irregular(1 << 11)
		},
	},
	{
		Name: "454.calculix",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.doallRuntime(400*s, 4)
			k.carriedStencil(480 * s)
			k.smallLoops(32*s, 48)
			k.irregular(1 << 12)
		},
	},
	{
		Name: "456.hmmer",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.carriedStencil(1600 * s) // dynamic-programming recurrence
			k.doallConst(320 * s)
			k.reduction(320 * s)
		},
	},
	{
		Name: "458.sjeng",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.coldCode(88, 28*s)
			k.pointerChase(400*s, true)
			k.irregular(1 << 11)
		},
	},
	{
		Name: "473.astar",
		build: func(k *kctx, in Input) {
			s := scale(in)
			k.pointerChase(800*s, true)
			k.carriedStencil(320 * s)
			k.doallConst(120 * s)
		},
	},
	{
		Name: "483.xalancbmk",
		build: func(k *kctx, in Input) {
			s := scale(in)
			// 1% DOALL coverage (paper): almost everything irregular.
			k.coldCode(112, 24*s)
			k.pointerChase(480*s, true)
			k.irregular(1 << 11)
			k.doallConst(48 * s)
		},
	},
}

// Names returns all benchmark names in evaluation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	return out
}

// ParallelisableNames returns the paper's nine figure-7 benchmarks in
// order.
func ParallelisableNames() []string {
	var out []string
	for _, b := range registry {
		if b.Parallelisable {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}

// ByName looks up a benchmark in the registry.
func ByName(name string) (Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// sectionKey identifies one data section: a registry benchmark's data
// layout and contents depend on its name and input alone, never on the
// optimisation level.
type sectionKey struct {
	name string
	in   Input
}

// buildKey identifies one deterministic build.
type buildKey struct {
	name string
	in   Input
	opt  OptLevel
}

// built pairs one build's outputs.
type built struct {
	exe  *obj.Executable
	libs []*obj.Library
}

// BuildSchema versions the build's identity record (ident-v2): it is
// part of every record's key, so it must be bumped whenever kernel
// emission changes in any way — generator kernels, the cold-runtime
// padding, the assembler encoding — otherwise a warm cache replays
// artifacts keyed by the identities of stale binaries. The
// golden-output test catches a forgotten bump: a stale identity
// replays stale figures.
const BuildSchema = "workloads-build/v1"

// ident is what a build is known by in a store, without its image: the
// content identity every downstream artifact is keyed by, and the
// code-section size figure 10 normalises against.
type ident struct {
	ID       string
	CodeSize int
}

// encodeIdent serialises an identity record (ident-v2): CodeSize as a
// little-endian u64, then the ID's bytes.
func encodeIdent(id ident) ([]byte, error) {
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+len(id.ID)), uint64(id.CodeSize))
	return append(out, id.ID...), nil
}

// decodeIdent parses an encodeIdent record, rejecting one that names no
// binary or a code size no build has, and an ID obj.Identity could not
// have produced.
func decodeIdent(data []byte) (ident, error) {
	if len(data) < 8 {
		return ident{}, fmt.Errorf("workloads: %d-byte identity record", len(data))
	}
	id := ident{ID: string(data[8:]), CodeSize: int(int64(binary.LittleEndian.Uint64(data)))}
	if id.ID == "" || id.CodeSize <= 0 {
		return ident{}, fmt.Errorf("workloads: empty identity record")
	}
	if !obj.IsIdentity(id.ID) {
		return ident{}, fmt.Errorf("workloads: identity record names no binary: %q", id.ID)
	}
	return id, nil
}

// Memo is the memory of the build stages, what a janus.Session holds of
// this package. The registry bounds every key space, so no tier is.
type Memo struct {
	// sections holds each (name, input) data section, which every
	// optimisation level's executable aliases (asm.Builder.BuildOver
	// refuses a section whose layout is not the builder's), so the
	// loader lays its image out once too.
	sections artcache.Tier[sectionKey, *asm.Section]
	// builds is memory-only: assembling a registry build is faster than
	// reading its ~1.3 MB image back, and everything downstream is keyed
	// by its identity record. Its stable executable pointers let
	// concurrent experiments share the downstream per-binary tiers.
	builds artcache.Tier[buildKey, built]
	// idents records what each build is known by, used through Disk
	// only. A record is trusted as much as its verified entry; obj.Lazy
	// re-checks it against the image whenever the image is needed.
	idents artcache.Tier[struct{}, ident]
	// opens holds one handle per (name, input, opt), for the same sharing.
	opens artcache.Tier[buildKey, *obj.Binary]
}

// NewMemo returns an empty build memory.
func NewMemo() *Memo {
	return &Memo{idents: artcache.Tier[struct{}, ident]{Kind: "ident-v2", Encode: encodeIdent, Decode: decodeIdent}}
}

// process is the memo of the package-level Build and Open, and of the
// process-default janus.Session.
var process atomic.Pointer[Memo]

func init() { process.Store(NewMemo()) }

// Default returns the process's memo.
func Default() *Memo { return process.Load() }

// ResetBuildCache empties the process's memo: the next Open reads the
// identity record (or assembles), and the next Build assembles.
func ResetBuildCache() { process.Store(NewMemo()) }

// Build is Default().Build.
func Build(name string, in Input, opt OptLevel) (*obj.Executable, []*obj.Library, error) {
	return Default().Build(name, in, opt)
}

// Build assembles the named benchmark at the given input size and
// optimisation level, returning the executable and any libraries it
// links against. The executable is stripped, as the paper targets
// stripped binaries. Builds are deterministic and memoised; executables
// and libraries are never mutated after construction, so sharing them
// is safe under concurrency.
func (m *Memo) Build(name string, in Input, opt OptLevel) (*obj.Executable, []*obj.Library, error) {
	bm, ok := ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	b, err := m.builds.Do(nil, buildKey{name: name, in: in, opt: opt}, nil,
		func() (built, error) { return m.build(bm, in, opt) })
	return b.exe, b.libs, err
}

// BuildCached is Build; c is ignored, because builds are no longer
// stored. It stays only for the benchmark module, which still calls it,
// and can go once that caller does.
func BuildCached(c *artcache.Cache, name string, in Input, opt OptLevel) (*obj.Executable, []*obj.Library, error) {
	return Build(name, in, opt)
}

// buildDiskKey is the disk key of one build's identity record
// (ident-v2).
func buildDiskKey(bm Benchmark, in Input, opt OptLevel) artcache.Key {
	return artcache.Key{
		Binary: bm.Name,
		Input:  in.String(),
		Config: "opt=" + opt.String() + " schema=" + BuildSchema,
	}
}

// Open is Default().Open.
func Open(c *artcache.Cache, name string, in Input, opt OptLevel) (*obj.Binary, error) {
	return Default().Open(c, name, in, opt)
}

// Open returns the handle of the named build. With a store, a build
// whose identity record is there is opened without its image — a lazy
// handle whose loader is Build — so a caller replaying every
// downstream stage from the store reads a few hundred bytes and
// assembles nothing; a missing record is computed from the build and
// published. A record that turns out not to describe the build is
// counted as a bad entry and rewritten from the build. Without a store
// the handle is eager and no identity is hashed unless a caller asks
// for one.
func (m *Memo) Open(c *artcache.Cache, name string, in Input, opt OptLevel) (*obj.Binary, error) {
	bm, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return m.opens.Do(nil, buildKey{name: name, in: in, opt: opt}, nil, func() (*obj.Binary, error) {
		load := func() (*obj.Executable, []*obj.Library, error) { return m.Build(name, in, opt) }
		if c == nil {
			exe, libs, err := load()
			if err != nil {
				return nil, err
			}
			return obj.NewBinary(exe, libs...), nil
		}
		key := buildDiskKey(bm, in, opt)
		var eager *obj.Binary
		rec, err := m.idents.Disk(c, func() (artcache.Key, bool) { return key, true }, func() (ident, error) {
			exe, libs, err := load()
			if err != nil {
				return ident{}, err
			}
			eager = obj.NewBinary(exe, libs...)
			return ident{ID: eager.ID(), CodeSize: eager.CodeSize()}, nil
		})
		if err != nil || eager != nil {
			return eager, err
		}
		return obj.Lazy(rec.ID, rec.CodeSize, load, func(id string, codeSize int) {
			m.idents.Replace(c, key, ident{ID: id, CodeSize: codeSize})
		}), nil
	})
}

// TierStats reports the identity stage's counters by artifact kind,
// and the build tier's under "build": every assembly, since builds are
// not stored. Handles are memoised above both, so a memory hit on a
// handle shows as no lookup at all.
func (m *Memo) TierStats() map[string]artcache.TierStats {
	return map[string]artcache.TierStats{
		"build":       m.builds.Stats(),
		m.idents.Kind: m.idents.Stats(),
	}
}

// build performs the uncached assembly of one benchmark binary over
// its (name, input) data section, generated once (m.sections).
func (m *Memo) build(bm Benchmark, in Input, opt OptLevel) (built, error) {
	b := assemble(bm, in, opt)
	sec, _ := m.sections.Memo(sectionKey{name: bm.Name, in: in}, func() (*asm.Section, error) { return b.Section(), nil })
	exe, err := b.BuildOver(sec)
	if err != nil {
		return built{}, fmt.Errorf("workloads: %s: %w", bm.Name, err)
	}
	out := built{exe: exe.Strip()}
	if len(exe.Imports) > 0 {
		// The library set is the shared math library iff the binary
		// imports from it.
		out.libs = []*obj.Library{MathLib()}
	}
	return out, nil
}

// assemble emits one registry benchmark's program into a new builder.
func assemble(bm Benchmark, in Input, opt OptLevel) *asm.Builder {
	b := asm.NewBuilder(fmt.Sprintf("%s-%s-%s", bm.Name, in, opt))
	k := &kctx{b: b, f: b.Func("main"), opt: opt}
	bm.build(k, in)
	k.exit()
	// Real SPEC binaries statically link substantial runtime support
	// (libc, libm, language runtimes) that never runs under the
	// reference inputs; the rewrite-schedule size of figure 10 is
	// normalised against that full text section. Emit an equivalent
	// amount of cold support code (unreachable from main, so neither
	// the analyser nor the DBM ever touches it). It references
	// nothing, so every build splices in the same bytes, encoded once.
	names, text := coldRuntime()
	for _, name := range names {
		b.EncodedFunc(name, text)
	}
	return b
}

// coldRuntime returns the names of the 36 cold support functions and
// their common text, 32 instructions (ADDI/XOR/SHLI/MOV in turn, then
// RET), encoded once per process.
var coldRuntime = sync.OnceValues(func() ([]string, []byte) {
	const funcs, insts = 36, 32
	names := make([]string, funcs)
	for i := range names {
		names[i] = fmt.Sprintf("__rt_support_%d", i)
	}
	text := make([]guest.Inst, 0, insts)
	for j := 0; j < insts-1; j++ {
		switch j % 4 {
		case 0:
			text = append(text, guest.NewInstI(guest.ADDI, guest.R0, int64(j)))
		case 1:
			text = append(text, guest.NewInst(guest.XOR, guest.R1, guest.R2))
		case 2:
			text = append(text, guest.NewInstI(guest.SHLI, guest.R3, 1))
		default:
			text = append(text, guest.NewInst(guest.MOV, guest.R4, guest.R5))
		}
	}
	text = append(text, guest.Inst{Op: guest.RET, Rd: guest.RegNone, Rs: guest.RegNone, M: guest.NoMem})
	return names, guest.EncodeAll(text)
})

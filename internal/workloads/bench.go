package workloads

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

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
	// buildExt, when non-nil, supersedes build: the benchmark comes
	// from an external generator (the graduated generative corpus),
	// supplies its own libraries, and ignores OptLevel (generated
	// kernels are emitted at one optimisation shape).
	buildExt func(in Input) (*obj.Executable, []*obj.Library, error)
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

// generated holds benchmarks registered at runtime (the graduated
// generative corpus, janus-bench -gen-corpus). It is empty unless a
// caller explicitly registers kernels, so the default suite — and the
// golden fixture pinning its byte-exact output — is unaffected by the
// generator's presence.
var (
	genMu     sync.Mutex
	generated []Benchmark
)

// RegisterGenerated appends a generated benchmark to the evaluation
// suite. The build callback must be deterministic; parallelisable
// marks kernels whose loops were actually selected (they join the
// figure-7 set). Names must be unique across the static registry and
// prior registrations; the "gen/" prefix keeps them visually distinct.
func RegisterGenerated(name string, parallelisable bool, build func(in Input) (*obj.Executable, []*obj.Library, error)) error {
	if name == "" || build == nil {
		return fmt.Errorf("workloads: RegisterGenerated: name and build are required")
	}
	genMu.Lock()
	defer genMu.Unlock()
	if _, ok := byNameLocked(name); ok {
		return fmt.Errorf("workloads: benchmark %q already registered", name)
	}
	generated = append(generated, Benchmark{
		Name:           name,
		Parallelisable: parallelisable,
		buildExt:       build,
	})
	return nil
}

// GeneratedNames returns the registered generative-corpus benchmarks
// in registration order.
func GeneratedNames() []string {
	genMu.Lock()
	defer genMu.Unlock()
	out := make([]string, len(generated))
	for i, b := range generated {
		out[i] = b.Name
	}
	return out
}

// Names returns all benchmark names in evaluation order: the static
// registry followed by any graduated generated kernels.
func Names() []string {
	genMu.Lock()
	defer genMu.Unlock()
	out := make([]string, 0, len(registry)+len(generated))
	for _, b := range registry {
		out = append(out, b.Name)
	}
	for _, b := range generated {
		out = append(out, b.Name)
	}
	return out
}

// ParallelisableNames returns the figure-7 benchmarks in order: the
// paper's nine plus any parallelisable graduated kernels.
func ParallelisableNames() []string {
	genMu.Lock()
	defer genMu.Unlock()
	var out []string
	for _, b := range registry {
		if b.Parallelisable {
			out = append(out, b.Name)
		}
	}
	for _, b := range generated {
		if b.Parallelisable {
			out = append(out, b.Name)
		}
	}
	sort.Strings(out)
	return out
}

// ByName looks up a benchmark in the static registry or the generated
// corpus.
func ByName(name string) (Benchmark, bool) {
	genMu.Lock()
	defer genMu.Unlock()
	return byNameLocked(name)
}

func byNameLocked(name string) (Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	for _, b := range generated {
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

// sectionTier generates each (name, input) data section once, in memory
// only: every optimisation level's executable aliases it, so the loader
// lays its image out once too. asm.Builder.BuildOver refuses a section
// whose layout is not the builder's, so a level whose data declarations
// ever diverged would fail its build rather than run over foreign data.
var sectionTier artcache.Tier[sectionKey, *asm.Section]

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

// BuildSchema versions the build's identity record (ident-v1): it is
// part of every record's key, so it must be bumped whenever kernel
// emission changes in any way — generator kernels, the cold-runtime
// padding, the assembler encoding — otherwise a warm cache replays
// artifacts keyed by the identities of stale binaries. The
// golden-output test catches a forgotten bump: a stale identity
// replays stale figures.
const BuildSchema = "workloads-build/v1"

// buildTier memoises builds per (name, input, opt): concurrent
// experiments asking for the same binary share one build — and,
// because the returned *obj.Executable pointer is stable, they also
// share the downstream per-executable tiers (native baseline, train
// profile). It is memory-only: assembling a registry build is faster
// than reading its ~1.3 MB image back from a store, and everything
// downstream is keyed by its identity record (identTier), never by the
// image. The key space is bounded by the registry, so the
// tier is unbounded.
var buildTier artcache.Tier[buildKey, built]

// Build assembles the named benchmark at the given input size and
// optimisation level, returning the executable and any libraries it
// links against. The executable is stripped, as the paper targets
// stripped binaries. Builds are deterministic and memoised (buildTier);
// executables and libraries are never mutated after construction, so
// sharing them is safe under concurrency.
func Build(name string, in Input, opt OptLevel) (*obj.Executable, []*obj.Library, error) {
	bm, ok := ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	b, err := buildTier.Do(nil, buildKey{name: name, in: in, opt: opt}, nil,
		func() (built, error) { return build(bm, in, opt) })
	return b.exe, b.libs, err
}

// BuildCached is Build; c is ignored, because builds are no longer
// stored. It stays only for the benchmark module, which still calls it,
// and can go once that caller does.
func BuildCached(c *artcache.Cache, name string, in Input, opt OptLevel) (*obj.Executable, []*obj.Library, error) {
	return Build(name, in, opt)
}

// buildDiskKey is the disk key of one registry build's identity record
// (ident-v1). Generated-corpus benchmarks (buildExt) report ok=false:
// their libraries are supplied by the generator, so they have no
// record and are always opened eagerly.
func buildDiskKey(bm Benchmark, in Input, opt OptLevel) (artcache.Key, bool) {
	return artcache.Key{
		Binary: bm.Name,
		Input:  fmt.Sprintf("%s", in),
		Config: fmt.Sprintf("opt=%s schema=%s", opt, BuildSchema),
	}, bm.buildExt == nil
}

// ident is what a build is known by in a store, without its image: the
// content identity every downstream artifact is keyed by, and the
// code-section size figure 10 normalises against.
type ident struct {
	ID       string
	CodeSize int
}

// identTier records what each registry build is known by, used through
// Disk only (the handles made from it live in openTier). A record is
// trusted exactly as much as its verified entry is; obj.Lazy re-checks
// it against the assembled image whenever the image is actually needed.
var identTier = artcache.Tier[struct{}, ident]{
	Kind:   "ident-v1",
	Encode: func(id ident) ([]byte, error) { return json.Marshal(id) },
	Decode: func(data []byte) (ident, error) {
		var id ident
		if err := json.Unmarshal(data, &id); err != nil {
			return ident{}, err
		}
		if id.ID == "" || id.CodeSize <= 0 {
			return ident{}, fmt.Errorf("workloads: empty identity record")
		}
		return id, nil
	},
}

// openTier holds one handle per (name, input, opt), so concurrent
// experiments share the downstream per-binary tiers the way Build's
// stable executable pointer lets them.
var openTier artcache.Tier[buildKey, *obj.Binary]

// Open returns the handle of the named build. With a store, a build
// whose identity record is there is opened without its image — a lazy
// handle whose loader is Build — so a caller replaying every
// downstream stage from the store reads a few hundred bytes and
// assembles nothing; a missing record is computed from the build and
// published. A record that turns out not to describe the build is
// counted as a bad entry and rewritten from the build. Without a store
// the handle is eager and no identity is hashed unless a caller asks
// for one.
func Open(c *artcache.Cache, name string, in Input, opt OptLevel) (*obj.Binary, error) {
	bm, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return openTier.Do(nil, buildKey{name: name, in: in, opt: opt}, nil, func() (*obj.Binary, error) {
		load := func() (*obj.Executable, []*obj.Library, error) { return Build(name, in, opt) }
		key, keyed := buildDiskKey(bm, in, opt)
		if c == nil || !keyed {
			exe, libs, err := load()
			if err != nil {
				return nil, err
			}
			return obj.NewBinary(exe, libs...), nil
		}
		var eager *obj.Binary
		rec, err := identTier.Disk(c, func() (artcache.Key, bool) { return key, true }, func() (ident, error) {
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
			identTier.Replace(c, key, ident{ID: id, CodeSize: codeSize})
		}), nil
	})
}

// ResetBuildCache drops every completed entry from the in-memory
// section and build tiers and every handle Open has handed out, forcing
// the next Open through the identity record (or a fresh assembly) and
// the next Build to assemble. Tests use it to exercise cold/warm paths
// in one process.
func ResetBuildCache() {
	sectionTier.Reset()
	buildTier.Reset()
	openTier.Reset()
}

// TierStats reports the memory-tier counters of the identity stage by
// artifact kind (see janus.TierStats), and the build tier's under
// "build": every assembly this process ran, since builds are not
// stored. Handles are memoised above both, so a memory hit on a handle
// shows as no lookup at all.
func TierStats() map[string]artcache.TierStats {
	return map[string]artcache.TierStats{
		"build":        buildTier.Stats(),
		identTier.Kind: identTier.Stats(),
	}
}

// build performs the uncached assembly of one benchmark binary over
// its (name, input) data section, generated once (sectionTier).
func build(bm Benchmark, in Input, opt OptLevel) (built, error) {
	if bm.buildExt != nil {
		exe, libs, err := bm.buildExt(in)
		return built{exe: exe, libs: libs}, err
	}
	b := assemble(bm, in, opt)
	sec, _ := sectionTier.Memo(sectionKey{name: bm.Name, in: in}, func() (*asm.Section, error) { return b.Section(), nil })
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
	// the analyser nor the DBM ever touches it).
	emitColdRuntime(b, 36, 32)
	return b
}

// emitColdRuntime appends nFuncs unreferenced support functions of
// instsPerFunc instructions each (the statically-linked runtime text of
// a real binary).
func emitColdRuntime(b *asm.Builder, nFuncs, instsPerFunc int) {
	for i := 0; i < nFuncs; i++ {
		f := b.Func(fmt.Sprintf("__rt_support_%d", i))
		for j := 0; j < instsPerFunc-1; j++ {
			switch j % 4 {
			case 0:
				f.OpI(guest.ADDI, guest.R0, int64(j))
			case 1:
				f.Op(guest.XOR, guest.R1, guest.R2)
			case 2:
				f.OpI(guest.SHLI, guest.R3, 1)
			default:
				f.Mov(guest.R4, guest.R5)
			}
		}
		f.Ret()
	}
}

// MustBuild is Build that panics on error (for examples and benches).
func MustBuild(name string, in Input, opt OptLevel) (*obj.Executable, []*obj.Library) {
	exe, libs, err := Build(name, in, opt)
	if err != nil {
		panic(err)
	}
	return exe, libs
}

// Package harness regenerates every table and figure of the paper's
// evaluation section over the synthetic workload suite. Each experiment
// returns structured rows and can render itself as a text table; the
// janus-bench command and the repository-level benchmarks drive it.
//
// Experiments and their benchmark rows are schedulable units run on a
// bounded worker pool (see scheduler.go and RenderAll). Every figure
// is computed from deterministic virtual cycles and folded back in a
// fixed order, so the rendered output is byte-identical whatever the
// Options engine selection (host-parallel or round-robin regions), the
// Jobs bound, and the host GOMAXPROCS; determinism_test.go and
// golden_test.go pin all of it.
package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/compilers"
	"janus/internal/dbm"
	"janus/internal/faultinject"
	"janus/internal/obj"
	"janus/internal/workloads"
)

// DefaultThreads matches the paper's eight-core evaluation machine.
const DefaultThreads = 8

// Options is one harness run's configuration. Experiments receive it
// per call — nothing is process-global — so concurrent experiments
// with different options cannot leak engine selection into each other.
// The engine switch follows janus.Config's convention: the zero value
// selects the default engine (eligible regions on host goroutines), so
// a hand-built Options never silently downgrades to the slow path.
type Options struct {
	// Threads is the guest thread count experiments measure at
	// (figures 8/9 additionally sweep below it).
	Threads int
	// Jobs bounds how many benchmark rows run concurrently across the
	// whole suite (janus-bench's -jobs flag; 1 = fully sequential).
	// Rendered output is byte-identical at any value.
	Jobs int
	// SingleGoroutine forces the single-goroutine round-robin region
	// engine instead of running eligible regions on host goroutines
	// (janus-bench -host-parallel=false).
	SingleGoroutine bool
	// Inject arms deterministic fault injection inside speculative
	// regions (janus-bench -inject). Injected faults recover onto the
	// round-robin engine, so rendered output stays byte-identical; the
	// Recovery log below proves the recovery path actually ran.
	Inject *faultinject.Plan
	// Recovery, when non-nil, accumulates recovery counters across
	// every Janus run the suite performs.
	Recovery *RecoveryLog
	// OnProgress, when non-nil, receives progress events while a render
	// runs: one "start"/"done"/"failed" event per experiment and one
	// "row" tick per completed benchmark row. Events are delivered from
	// concurrent worker goroutines, so the callback must be safe for
	// concurrent use; janusd streams them to service clients. Progress
	// observation never changes rendered bytes.
	OnProgress func(ProgressEvent)
	// CacheDir, when non-empty, enables the durable artifact cache
	// (janus-bench -cache-dir): workload builds, native baselines,
	// training profiles and DBM results are stored on disk there and
	// replayed on subsequent runs. Rendered output is byte-identical
	// with the cache off, cold, or warm; only wall-clock changes. The
	// directory is safe to share between concurrent processes.
	CacheDir string

	// cache is the opened durable store (resolved from CacheDir by
	// launch; OpenShared dedups per directory so every experiment and the
	// owning command observe one counter set).
	cache *artcache.Cache
}

// RecoveryLog aggregates speculation-recovery counters across the
// concurrent Janus runs of a suite render (janus-bench surfaces it on
// stderr so silent demotions are visible without perturbing the golden
// stdout).
type RecoveryLog struct {
	ParRecoveries atomic.Int64
	DemotedLoops  atomic.Int64
}

// Fold accumulates one run's counters.
func (l *RecoveryLog) Fold(st dbm.Stats) {
	l.ParRecoveries.Add(st.ParRecoveries)
	l.DemotedLoops.Add(st.DemotedLoops)
}

// Summary renders the accumulated counters.
func (l *RecoveryLog) Summary() string {
	return fmt.Sprintf("speculation recovery: %d region recoveries, %d loops demoted",
		l.ParRecoveries.Load(), l.DemotedLoops.Load())
}

// DefaultOptions is the janus-bench default configuration.
func DefaultOptions() Options {
	return Options{
		Threads: DefaultThreads,
		Jobs:    runtime.GOMAXPROCS(0),
	}
}

// launch is the one entry path of every experiment and of RenderAll: it
// fills unset options with their defaults, opens the durable cache
// when CacheDir is set — an open failure is returned, never silently
// degraded to an uncached run — and hands f the scheduler all of its
// rows share.
func launch[T any](ctx context.Context, o Options, f func(Options, *scheduler) (T, error)) (T, error) {
	if o.Threads <= 0 {
		o.Threads = DefaultThreads
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	if o.CacheDir != "" {
		c, err := artcache.OpenShared(o.CacheDir)
		if err != nil {
			var zero T
			return zero, err
		}
		o.cache = c
	}
	return f(o, newScheduler(ctx, o.Jobs, o.OnProgress))
}

// engineConfig applies the run's engine selection and fault-injection
// plan to one Janus configuration.
func (o Options) engineConfig(c janus.Config) janus.Config {
	c.SingleGoroutine = o.SingleGoroutine
	c.Inject = o.Inject
	c.Cache = o.cache
	if o.Recovery != nil {
		c.OnStats = o.Recovery.Fold
	}
	return c
}

// compilerEngine is the same selection for the modelled compilers.
func (o Options) compilerEngine() compilers.Engine {
	return compilers.Engine{HostParallel: !o.SingleGoroutine, WorkStealing: true}
}

// buildRef builds the ref-input O3 binary for a benchmark, through the
// durable cache when one is configured.
func (o Options) buildRef(name string) (*obj.Executable, []*obj.Library, error) {
	return workloads.BuildCached(o.cache, name, workloads.Ref, workloads.O3)
}

// buildTrain builds the train-input O3 binary.
func (o Options) buildTrain(name string) (*obj.Executable, []*obj.Library, error) {
	return workloads.BuildCached(o.cache, name, workloads.Train, workloads.O3)
}

// geomean of strictly positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// ---------------------------------------------------------------------
// Figure 6: loop classification, static fraction and execution-time
// fraction per category, for all 25 benchmarks.
// ---------------------------------------------------------------------

// ClassFractions holds per-category fractions summing to at most 1.
type ClassFractions struct {
	StaticDOALL float64
	DynDOALL    float64
	StaticDep   float64
	DynDep      float64
	Incompat    float64
}

// Fig6Row is one benchmark's figure-6 entry.
type Fig6Row struct {
	Bench string
	// Static is the fraction of *loops* in each category.
	Static ClassFractions
	// Dynamic is the fraction of *execution time* in each category.
	Dynamic ClassFractions
}

// Figure6 classifies every loop of every benchmark and profiles
// execution-time fractions with training inputs.
func Figure6(o Options) ([]Fig6Row, error) {
	return launch(context.Background(), o, figure6)
}

func figure6(o Options, s *scheduler) ([]Fig6Row, error) {
	names := workloads.Names()
	rows := make([]Fig6Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		row, err := figure6Row(names[i], o)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func figure6Row(name string, o Options) (*Fig6Row, error) {
	exe, libs, err := o.buildTrain(name)
	if err != nil {
		return nil, err
	}
	prog, err := analyzer.Analyze(exe)
	if err != nil {
		return nil, err
	}
	pr, err := janus.RunProfilingCached(o.cache, exe, prog, libs...)
	if err != nil {
		return nil, err
	}
	prog.ApplyExclCoverage(pr.ExclCoverage)
	prog.ApplyDependences(pr.Dependences)

	row := Fig6Row{Bench: name}
	n := float64(len(prog.Loops))
	for _, li := range prog.Loops {
		sf := 1.0 / n
		df := li.ExclCoverage
		switch li.Class {
		case analyzer.ClassStaticDOALL:
			row.Static.StaticDOALL += sf
			row.Dynamic.StaticDOALL += df
		case analyzer.ClassDynDOALL:
			row.Static.DynDOALL += sf
			row.Dynamic.DynDOALL += df
		case analyzer.ClassStaticDep:
			row.Static.StaticDep += sf
			row.Dynamic.StaticDep += df
		case analyzer.ClassDynDep:
			row.Static.DynDep += sf
			row.Dynamic.DynDep += df
		default:
			row.Static.Incompat += sf
			row.Dynamic.Incompat += df
		}
	}
	return &row, nil
}

// RenderFigure6 formats the rows as the two stacked-bar tables.
func RenderFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: loop categories (%% of loops | %% of execution time)\n")
	fmt.Fprintf(&b, "%-16s %28s | %28s\n", "benchmark", "static A/C/B/D/inc", "dynamic A/C/B/D/inc")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %5.0f%%%5.0f%%%5.0f%%%5.0f%%%5.0f%% | %5.0f%%%5.0f%%%5.0f%%%5.0f%%%5.0f%%\n",
			r.Bench,
			100*r.Static.StaticDOALL, 100*r.Static.DynDOALL, 100*r.Static.StaticDep, 100*r.Static.DynDep, 100*r.Static.Incompat,
			100*r.Dynamic.StaticDOALL, 100*r.Dynamic.DynDOALL, 100*r.Dynamic.StaticDep, 100*r.Dynamic.DynDep, 100*r.Dynamic.Incompat)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 7: whole-program speedup at 8 threads under four
// configurations.
// ---------------------------------------------------------------------

// Fig7Row is one benchmark's four bars.
type Fig7Row struct {
	Bench     string
	DBMOnly   float64 // DynamoRIO-only overhead run
	Static    float64 // statically-driven parallelisation
	Profile   float64 // + profile-guided selection
	Janus     float64 // + runtime checks and speculation (full system)
	PaperRef  float64 // paper's Janus bar for comparison
	LoopsPar  int
	ChecksRun int64
}

// Figure7 measures the four configurations on the nine parallelisable
// benchmarks.
func Figure7(o Options) ([]Fig7Row, error) {
	return launch(context.Background(), o, figure7)
}

func figure7(o Options, s *scheduler) ([]Fig7Row, error) {
	names := workloads.ParallelisableNames()
	rows := make([]Fig7Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		row, err := figure7Row(names[i], o)
		if err != nil {
			return fmt.Errorf("%s: %w", names[i], err)
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func figure7Row(name string, o Options) (*Fig7Row, error) {
	exe, libs, err := o.buildRef(name)
	if err != nil {
		return nil, err
	}
	trainExe, _, err := o.buildTrain(name)
	if err != nil {
		return nil, err
	}
	native, err := janus.RunNativeBaselineCached(o.cache, exe, libs...)
	if err != nil {
		return nil, err
	}
	bare, err := janus.RunBareDBMCached(o.cache, exe, libs...)
	if err != nil {
		return nil, err
	}
	run := func(cfg janus.Config) (*janus.Report, error) {
		cfg.Threads = o.Threads
		cfg.Verify = true
		cfg.TrainExe = trainExe
		return janus.Parallelise(exe, o.engineConfig(cfg), libs...)
	}
	static, err := run(janus.Config{})
	if err != nil {
		return nil, err
	}
	prof, err := run(janus.Config{UseProfile: true})
	if err != nil {
		return nil, err
	}
	full, err := run(janus.Config{UseProfile: true, UseChecks: true})
	if err != nil {
		return nil, err
	}
	bm, _ := workloads.ByName(name)
	return &Fig7Row{
		Bench:     name,
		DBMOnly:   float64(native.Cycles) / float64(bare.Cycles),
		Static:    static.Speedup(),
		Profile:   prof.Speedup(),
		Janus:     full.Speedup(),
		PaperRef:  bm.PaperSpeedup8T,
		LoopsPar:  full.Selected,
		ChecksRun: full.Stats.ChecksRun,
	}, nil
}

// RenderFigure7 formats the rows plus the geomean line.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: speedup vs native, %d threads\n", DefaultThreads)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s   %s\n", "benchmark", "DBM", "static", "+prof", "Janus", "paper")
	var d, s, p, j []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8.2f %8.2f %8.2f %8.2f   %.2f\n", r.Bench, r.DBMOnly, r.Static, r.Profile, r.Janus, r.PaperRef)
		d = append(d, r.DBMOnly)
		s = append(s, r.Static)
		p = append(p, r.Profile)
		j = append(j, r.Janus)
	}
	fmt.Fprintf(&b, "%-16s %8.2f %8.2f %8.2f %8.2f   2.10\n", "geomean", geomean(d), geomean(s), geomean(p), geomean(j))
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 8: execution-time breakdown for 1 and 8 threads.
// ---------------------------------------------------------------------

// Breakdown is the figure-8 decomposition, as fractions of the
// one-thread Janus total for the same benchmark.
type Breakdown struct {
	Sequential  float64
	Parallel    float64
	InitFinish  float64
	Translation float64
	Checks      float64
	// Total is the run's cycles relative to the 1-thread run.
	Total float64
}

// Fig8Row pairs the 1-thread and N-thread breakdowns.
type Fig8Row struct {
	Bench   string
	One     Breakdown
	N       Breakdown
	Threads int
}

// Figure8 measures breakdowns for 1 and Options.Threads threads.
func Figure8(o Options) ([]Fig8Row, error) {
	return launch(context.Background(), o, figure8)
}

func figure8(o Options, s *scheduler) ([]Fig8Row, error) {
	names := workloads.ParallelisableNames()
	rows := make([]Fig8Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		name := names[i]
		exe, libs, err := o.buildRef(name)
		if err != nil {
			return err
		}
		trainExe, _, err := o.buildTrain(name)
		if err != nil {
			return err
		}
		run := func(n int) (*janus.Report, error) {
			return janus.Parallelise(exe, o.engineConfig(janus.Config{
				Threads: n, UseProfile: true, UseChecks: true, Verify: false, TrainExe: trainExe,
			}), libs...)
		}
		one, err := run(1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		nt, err := run(o.Threads)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		base := float64(one.DBM.Cycles)
		rows[i] = Fig8Row{
			Bench:   name,
			One:     breakdownOf(one.DBM, base),
			N:       breakdownOf(nt.DBM, base),
			Threads: o.Threads,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

func breakdownOf(res *dbm.Result, base float64) Breakdown {
	st := res.Stats
	total := float64(res.Cycles)
	seq := total - float64(st.ParCycles+st.InitFinishCycles+st.CheckCycles+st.TransCycles)
	if seq < 0 {
		seq = 0
	}
	return Breakdown{
		Sequential:  seq / base,
		Parallel:    float64(st.ParCycles) / base,
		InitFinish:  float64(st.InitFinishCycles) / base,
		Translation: float64(st.TransCycles) / base,
		Checks:      float64(st.CheckCycles) / base,
		Total:       total / base,
	}
}

// RenderFigure8 formats the breakdown table.
func RenderFigure8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: execution-time breakdown (fraction of 1-thread total)\n")
	fmt.Fprintf(&b, "%-16s %7s %6s %6s %6s %6s %6s\n", "benchmark", "threads", "seq", "par", "init", "trans", "check")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %7d %6.2f %6.2f %6.2f %6.2f %6.2f\n", r.Bench, 1,
			r.One.Sequential, r.One.Parallel, r.One.InitFinish, r.One.Translation, r.One.Checks)
		fmt.Fprintf(&b, "%-16s %7d %6.2f %6.2f %6.2f %6.2f %6.2f\n", "", r.Threads,
			r.N.Sequential, r.N.Parallel, r.N.InitFinish, r.N.Translation, r.N.Checks)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 9: speedup for 1..8 threads.
// ---------------------------------------------------------------------

// Fig9Row is one benchmark's thread-scaling series.
type Fig9Row struct {
	Bench    string
	Speedups []float64 // index 0 = 1 thread
}

// Figure9 sweeps thread counts 1..Options.Threads.
func Figure9(o Options) ([]Fig9Row, error) {
	return launch(context.Background(), o, figure9)
}

func figure9(o Options, s *scheduler) ([]Fig9Row, error) {
	names := workloads.ParallelisableNames()
	rows := make([]Fig9Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		name := names[i]
		exe, libs, err := o.buildRef(name)
		if err != nil {
			return err
		}
		trainExe, _, err := o.buildTrain(name)
		if err != nil {
			return err
		}
		row := Fig9Row{Bench: name}
		for n := 1; n <= o.Threads; n++ {
			rep, err := janus.Parallelise(exe, o.engineConfig(janus.Config{
				Threads: n, UseProfile: true, UseChecks: true, Verify: false, TrainExe: trainExe,
			}), libs...)
			if err != nil {
				return fmt.Errorf("%s@%d: %w", name, n, err)
			}
			row.Speedups = append(row.Speedups, rep.Speedup())
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure9 formats the scaling table.
func RenderFigure9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: speedup vs thread count\n%-16s", "benchmark")
	if len(rows) > 0 {
		for n := 1; n <= len(rows[0].Speedups); n++ {
			fmt.Fprintf(&b, "%7d", n)
		}
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s", r.Bench)
		for _, s := range r.Speedups {
			fmt.Fprintf(&b, "%7.2f", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 10: rewrite-schedule size as a fraction of binary size.
// ---------------------------------------------------------------------

// Fig10Row is one benchmark's schedule-size overhead.
type Fig10Row struct {
	Bench        string
	ScheduleSize int
	BinarySize   int
	Fraction     float64
}

// Figure10 generates the full-Janus schedule for each benchmark and
// compares its serialised size with the binary image size.
func Figure10(o Options) ([]Fig10Row, error) {
	return launch(context.Background(), o, figure10)
}

func figure10(o Options, s *scheduler) ([]Fig10Row, error) {
	names := workloads.ParallelisableNames()
	rows := make([]Fig10Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		name := names[i]
		exe, libs, err := o.buildRef(name)
		if err != nil {
			return err
		}
		trainExe, _, err := o.buildTrain(name)
		if err != nil {
			return err
		}
		rep, err := janus.Parallelise(exe, o.engineConfig(janus.Config{
			Threads: o.Threads, UseProfile: true, UseChecks: true, Verify: false, TrainExe: trainExe,
		}), libs...)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		size := rep.Schedule.Size()
		// Normalise against the code section: the paper's SPEC binaries
		// read their reference inputs from files, whereas our synthetic
		// binaries embed them in .data, which would deflate the ratio
		// meaninglessly.
		codeSize := len(exe.Code)
		rows[i] = Fig10Row{
			Bench:        name,
			ScheduleSize: size,
			BinarySize:   codeSize,
			Fraction:     float64(size) / float64(codeSize),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure10 formats the size table with the geomean.
func RenderFigure10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: rewrite-schedule size overhead\n")
	fmt.Fprintf(&b, "%-16s %10s %10s %8s\n", "benchmark", "schedule", "binary", "percent")
	var fr []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %10d %7.1f%%\n", r.Bench, r.ScheduleSize, r.BinarySize, 100*r.Fraction)
		fr = append(fr, r.Fraction)
	}
	fmt.Fprintf(&b, "%-16s %10s %10s %7.1f%%   (paper: 3.7%%)\n", "geomean", "", "", 100*geomean(fr))
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 11: Janus vs compiler auto-parallelisation (gcc and icc).
// ---------------------------------------------------------------------

// Fig11Row compares Janus against the modelled compilers.
type Fig11Row struct {
	Bench    string
	GccAuto  float64 // gcc-like source parallelisation
	JanusGcc float64 // Janus on the gcc-like binary (O3)
	IccAuto  float64 // icc-like source parallelisation (on O3AVX build)
	JanusIcc float64 // Janus on the icc-like binary (O3AVX)
}

// Figure11 runs both compilers and Janus on both binary flavours.
func Figure11(o Options) ([]Fig11Row, error) {
	return launch(context.Background(), o, figure11)
}

func figure11(o Options, s *scheduler) ([]Fig11Row, error) {
	names := workloads.ParallelisableNames()
	rows := make([]Fig11Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		name := names[i]
		gccExe, libs, err := workloads.BuildCached(o.cache, name, workloads.Ref, workloads.O3)
		if err != nil {
			return err
		}
		iccExe, _, err := workloads.BuildCached(o.cache, name, workloads.Ref, workloads.O3AVX)
		if err != nil {
			return err
		}
		gccTrain, _, err := workloads.BuildCached(o.cache, name, workloads.Train, workloads.O3)
		if err != nil {
			return err
		}
		iccTrain, _, err := workloads.BuildCached(o.cache, name, workloads.Train, workloads.O3AVX)
		if err != nil {
			return err
		}
		gccAuto, err := compilers.Parallelise(compilers.GCC, gccExe, o.Threads, o.compilerEngine(), libs...)
		if err != nil {
			return fmt.Errorf("%s gcc: %w", name, err)
		}
		iccAuto, err := compilers.Parallelise(compilers.ICC, iccExe, o.Threads, o.compilerEngine(), libs...)
		if err != nil {
			return fmt.Errorf("%s icc: %w", name, err)
		}
		jg, err := janus.Parallelise(gccExe, o.engineConfig(janus.Config{
			Threads: o.Threads, UseProfile: true, UseChecks: true, Verify: false, TrainExe: gccTrain,
		}), libs...)
		if err != nil {
			return fmt.Errorf("%s janus/gcc: %w", name, err)
		}
		ji, err := janus.Parallelise(iccExe, o.engineConfig(janus.Config{
			Threads: o.Threads, UseProfile: true, UseChecks: true, Verify: false, TrainExe: iccTrain,
		}), libs...)
		if err != nil {
			return fmt.Errorf("%s janus/icc: %w", name, err)
		}
		rows[i] = Fig11Row{
			Bench:    name,
			GccAuto:  gccAuto.Speedup,
			JanusGcc: jg.Speedup(),
			IccAuto:  iccAuto.Speedup,
			JanusIcc: ji.Speedup(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure11 formats the comparison.
func RenderFigure11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: Janus vs compiler auto-parallelisation\n")
	fmt.Fprintf(&b, "%-16s %9s %10s %9s %10s\n", "benchmark", "gcc-auto", "Janus@gcc", "icc-auto", "Janus@icc")
	var g, jg, ic, ji []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9.2f %10.2f %9.2f %10.2f\n", r.Bench, r.GccAuto, r.JanusGcc, r.IccAuto, r.JanusIcc)
		g, jg, ic, ji = append(g, r.GccAuto), append(jg, r.JanusGcc), append(ic, r.IccAuto), append(ji, r.JanusIcc)
	}
	fmt.Fprintf(&b, "%-16s %9.2f %10.2f %9.2f %10.2f   (paper: 1.1 / 2.2 / 1.8 / 1.7)\n",
		"geomean", geomean(g), geomean(jg), geomean(ic), geomean(ji))
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 12: impact of compiler optimisation level on Janus.
// ---------------------------------------------------------------------

// Fig12Row is one benchmark's speedups on O2/O3/O3-AVX binaries.
type Fig12Row struct {
	Bench string
	O2    float64
	O3    float64
	AVX   float64
}

// Figure12 runs Janus on all three optimisation-level builds.
func Figure12(o Options) ([]Fig12Row, error) {
	return launch(context.Background(), o, figure12)
}

func figure12(o Options, s *scheduler) ([]Fig12Row, error) {
	names := workloads.ParallelisableNames()
	rows := make([]Fig12Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		name := names[i]
		row := Fig12Row{Bench: name}
		for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
			exe, libs, err := workloads.BuildCached(o.cache, name, workloads.Ref, opt)
			if err != nil {
				return err
			}
			trainExe, _, err := workloads.BuildCached(o.cache, name, workloads.Train, opt)
			if err != nil {
				return err
			}
			rep, err := janus.Parallelise(exe, o.engineConfig(janus.Config{
				Threads: o.Threads, UseProfile: true, UseChecks: true, Verify: false, TrainExe: trainExe,
			}), libs...)
			if err != nil {
				return fmt.Errorf("%s@%s: %w", name, opt, err)
			}
			switch opt {
			case workloads.O2:
				row.O2 = rep.Speedup()
			case workloads.O3:
				row.O3 = rep.Speedup()
			default:
				row.AVX = rep.Speedup()
			}
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFigure12 formats the optimisation-level table.
func RenderFigure12(rows []Fig12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: Janus speedup by binary optimisation level\n")
	fmt.Fprintf(&b, "%-16s %7s %7s %7s\n", "benchmark", "O2", "O3", "O3avx")
	var o2, o3, av []float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %7.2f %7.2f %7.2f\n", r.Bench, r.O2, r.O3, r.AVX)
		o2, o3, av = append(o2, r.O2), append(o3, r.O3), append(av, r.AVX)
	}
	fmt.Fprintf(&b, "%-16s %7.2f %7.2f %7.2f\n", "geomean", geomean(o2), geomean(o3), geomean(av))
	return b.String()
}

// ---------------------------------------------------------------------
// Table I: array-bounds checks per loop requiring them.
// ---------------------------------------------------------------------

// Tab1Row is one benchmark's average check count.
type Tab1Row struct {
	Bench string
	// AvgRanges is the mean number of symbolic ranges per
	// MEM_BOUNDS_CHECK rule (the paper's per-loop check count).
	AvgRanges float64
	Loops     int
	PaperRef  float64
}

// TableI inspects the generated schedules.
func TableI(o Options) ([]Tab1Row, error) {
	return launch(context.Background(), o, tableI)
}

func tableI(o Options, s *scheduler) ([]Tab1Row, error) {
	names := workloads.ParallelisableNames()
	slots := make([]*Tab1Row, len(names))
	err := s.forEach(len(names), func(i int) error {
		name := names[i]
		exe, libs, err := o.buildRef(name)
		if err != nil {
			return err
		}
		trainExe, _, err := o.buildTrain(name)
		if err != nil {
			return err
		}
		rep, err := janus.Parallelise(exe, o.engineConfig(janus.Config{
			Threads: o.Threads, UseProfile: true, UseChecks: true, Verify: false, TrainExe: trainExe,
		}), libs...)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		loops := 0
		ranges := 0
		for _, r := range rep.Schedule.Rules {
			if d, ok := r.Data.(interface{ NumChecks() int }); ok {
				loops++
				ranges += d.NumChecks()
			}
		}
		if loops == 0 {
			return nil // benchmarks without checks are absent from Table I
		}
		bm, _ := workloads.ByName(name)
		slots[i] = &Tab1Row{
			Bench:     name,
			AvgRanges: float64(ranges) / float64(loops),
			Loops:     loops,
			PaperRef:  bm.PaperChecks,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Tab1Row
	for _, r := range slots {
		if r != nil {
			rows = append(rows, *r)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Bench < rows[j].Bench })
	return rows, nil
}

// RenderTableI formats the check-count table.
func RenderTableI(rows []Tab1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: array-bounds checks per loop requiring them\n")
	fmt.Fprintf(&b, "%-16s %8s %8s %8s\n", "benchmark", "ranges", "loops", "paper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8.1f %8d %8.1f\n", r.Bench, r.AvgRanges, r.Loops, r.PaperRef)
	}
	return b.String()
}

// TableII renders the qualitative tool-comparison table (static data
// from the paper's related-work summary).
func TableII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: binary parallelisation tools\n")
	fmt.Fprintf(&b, "%-22s %-18s %-6s %-5s %-7s %-8s %-16s\n",
		"tool", "platform", "open", "auto", "checks", "shlibs", "parallelism")
	fmt.Fprintf(&b, "%-22s %-18s %-6s %-5s %-7s %-8s %-16s\n",
		"Yardimci & Franz", "PowerPC", "no", "no*", "no", "no", "static DOALL")
	fmt.Fprintf(&b, "%-22s %-18s %-6s %-5s %-7s %-8s %-16s\n",
		"SecondWrite", "x86-64", "no", "no*", "yes", "no", "affine loops")
	fmt.Fprintf(&b, "%-22s %-18s %-6s %-5s %-7s %-8s %-16s\n",
		"Pradelle et al", "x86-64", "no", "no*", "no", "no", "affine src2src")
	fmt.Fprintf(&b, "%-22s %-18s %-6s %-5s %-7s %-8s %-16s\n",
		"Janus", "x86-64, AArch64", "yes", "yes", "yes", "yes", "dynamic DOALL")
	fmt.Fprintf(&b, "(* manual profiling or tuning required)\n")
	return b.String()
}

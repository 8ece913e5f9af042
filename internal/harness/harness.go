// Package harness regenerates every table and figure of the paper's
// evaluation section over the synthetic workload suite. Each experiment
// returns structured rows and can render itself as a text table; the
// janus-bench command and the repository-level benchmarks drive it.
//
// A render puts every benchmark row of its experiments on one queue
// that Jobs goroutines drain (see suite.go). Each distinct Janus run —
// one binary flavour at one thread count under one configuration —
// executes once per render, verified against native execution, in the
// render's run table (render.janus); figures 7–12 and Table I are
// projections over those shared reports. Every figure is computed from
// deterministic virtual cycles and folded back in a fixed order, so the
// rendered output is byte-identical whatever the Jobs bound and the
// host GOMAXPROCS; determinism_test.go and golden_test.go pin both.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/compilers"
	"janus/internal/dbm"
	"janus/internal/profiler"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// DefaultThreads matches the paper's eight-core evaluation machine.
const DefaultThreads = 8

// Options is one harness run's configuration. Experiments receive it
// per call, memoised state included (Session), so concurrent
// experiments with different options cannot leak into each other.
type Options struct {
	// Threads is the guest thread count experiments measure at
	// (figures 8/9 additionally sweep below it).
	Threads int
	// Jobs is how many goroutines take a render's benchmark rows from
	// its one queue (janus-bench's -jobs flag; 1 = fully sequential).
	// Rendered output is byte-identical at any value.
	Jobs int
	// Recovery, when non-nil, accumulates recovery counters across
	// every Janus run the suite performs.
	Recovery *RecoveryLog
	// OnProgress, when non-nil, receives progress events while a render
	// runs: one "start"/"done"/"failed" event per experiment and one
	// "row" tick per completed benchmark row. An experiment starts when
	// its first row is taken from the render's queue and is done or
	// failed once its last row has finished. Events come from the
	// queue's goroutines and the caller's at once, so the callback must
	// be safe for concurrent use; bench/ times experiments and counts
	// rows from them. Progress observation never changes rendered bytes.
	OnProgress func(ProgressEvent)
	// CacheDir, when non-empty, enables the durable artifact cache
	// (janus-bench -cache-dir): workload builds and their identities,
	// plans (rewrite schedules), native baselines, training profiles and
	// DBM results are stored on disk there and replayed on subsequent
	// runs. Rendered output is byte-identical with the cache off, cold,
	// or warm; only wall-clock changes. The directory is safe to share
	// between concurrent processes.
	CacheDir string
	// Session holds the memoised builds, plans, baselines, profiles and
	// DBM results renders share; nil is the process default.
	Session *janus.Session
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

// render is one render's shared state: the normalised options, the
// opened durable store and the run table every experiment of the render
// projects its rows from.
type render struct {
	o Options
	// cache is the durable store resolved from Options.CacheDir
	// (OpenShared dedups per directory, so every experiment and the
	// owning command observe one counter set); nil when caching is off.
	cache *artcache.Cache
	// runs is the per-render run table: each distinct Janus run executes
	// once, concurrent askers join it, and a failure is remembered like a
	// result, so every experiment needing a failed run reports the same
	// error. It is a memory-only tier that lives and dies with the
	// render — nothing outlives a request in a long-lived process.
	runs artcache.Tier[runSpec, *janus.Report]
}

// newRender fills unset options with their defaults and opens the
// durable cache when CacheDir is set: an open failure is returned,
// never silently degraded to an uncached run.
func newRender(o Options) (*render, error) {
	if o.Threads <= 0 {
		o.Threads = DefaultThreads
	}
	if o.Jobs <= 0 {
		o.Jobs = 1
	}
	r := &render{o: o}
	if o.CacheDir != "" {
		c, err := artcache.OpenShared(o.CacheDir)
		if err != nil {
			return nil, err
		}
		r.cache = c
	}
	return r, nil
}

// Recycled counts one free list's takes since the process started:
// those that allocated and those served a value an earlier run
// returned.
type Recycled struct {
	Fresh  int64 `json:"fresh"`
	Reused int64 `json:"reused"`
}

// FreeLists are the counters of the process-wide free lists a render
// draws from: the VM's page blocks and page-table leaves, the
// profiler's dependence tables and the DBM's thread records.
type FreeLists struct {
	VMBlocks       Recycled `json:"vm_blocks"`
	VMLeaves       Recycled `json:"vm_leaves"`
	ProfilerTables Recycled `json:"profiler_tables"`
	DBMThreads     Recycled `json:"dbm_threads"`
}

// FreeListStats snapshots the free lists' counters.
func FreeListStats() FreeLists {
	var f FreeLists
	f.VMBlocks.Fresh, f.VMBlocks.Reused = vm.BlockStats()
	f.VMLeaves.Fresh, f.VMLeaves.Reused = vm.LeafStats()
	f.ProfilerTables.Fresh, f.ProfilerTables.Reused = profiler.TableStats()
	f.DBMThreads.Fresh, f.DBMThreads.Reused = dbm.ThreadStats()
	return f
}

// String renders the counters the way janus-bench prints them on stderr.
func (f FreeLists) String() string {
	return fmt.Sprintf("vm blocks %d fresh, %d reused; vm leaves %d fresh, %d reused; profiler tables %d fresh, %d reused; dbm threads %d fresh, %d reused",
		f.VMBlocks.Fresh, f.VMBlocks.Reused, f.VMLeaves.Fresh, f.VMLeaves.Reused, f.ProfilerTables.Fresh, f.ProfilerTables.Reused,
		f.DBMThreads.Fresh, f.DBMThreads.Reused)
}

// runMode is how much of the Janus system a run enables: the three
// parallelising bars of figure 7.
type runMode uint8

const (
	staticOnly runMode = iota // statically-driven parallelisation
	profiled                  // + profile-guided selection
	full                      // + runtime checks and speculation
)

func (m runMode) String() string {
	return [...]string{"static", "static+profile", "static+profile+checks"}[m]
}

// runSpec names one Janus run of a render: the ref-input build of bench
// at opt (profiled on the train-input build of the same flavour),
// parallelised under mode at threads guest threads.
type runSpec struct {
	bench   string
	opt     workloads.OptLevel
	threads int
	mode    runMode
}

// janus returns the verified report of one run from the render's run
// table, executing it on first request. It is the only place the
// harness parallelises a binary: figures 7–12 and Table I are
// projections over what it returns, and every run is checked against
// native execution (outputs and final memory image) before any figure
// may read it.
func (r *render) janus(bench string, opt workloads.OptLevel, threads int, mode runMode) (*janus.Report, error) {
	return r.runs.Do(nil, runSpec{bench, opt, threads, mode}, nil, func() (*janus.Report, error) {
		ref, err := r.o.Session.Open(r.cache, bench, workloads.Ref, opt)
		if err != nil {
			return nil, err
		}
		train, err := r.o.Session.Open(r.cache, bench, workloads.Train, opt)
		if err != nil {
			return nil, err
		}
		rep, err := janus.ParalleliseBinary(ref, train, janus.Config{
			Threads:    threads,
			UseProfile: mode >= profiled,
			UseChecks:  mode == full,
			Verify:     true,
			Cache:      r.cache,
			Session:    r.o.Session,
		})
		if err != nil {
			return nil, fmt.Errorf("%s, %d threads, %s: %w", opt, threads, mode, err)
		}
		if r.o.Recovery != nil {
			r.o.Recovery.Fold(rep.Stats)
		}
		return rep, nil
	})
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

// figure6Selection is the full Janus policy; figure 6 reads only the
// loop summary of the plan it yields (classes after dependence
// profiling, exclusive coverage), which no selection knob influences.
var figure6Selection = janus.Config{UseProfile: true, UseChecks: true}.Selection()

// figure6 classifies every loop of a benchmark and profiles
// execution-time fractions with training inputs.
func figure6(r *render, name string) (Fig6Row, error) {
	row := Fig6Row{Bench: name}
	// The train-input build, trained on itself: a projection over its
	// plan, which a warm store replays without the image.
	bin, err := r.o.Session.Open(r.cache, name, workloads.Train, workloads.O3)
	if err != nil {
		return row, err
	}
	plan, err := r.o.Session.PlanCached(r.cache, bin, nil, figure6Selection)
	if err != nil {
		return row, err
	}

	n := float64(len(plan.Loops))
	for _, li := range plan.Loops {
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
	return row, nil
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
// Figure 7: whole-program speedup at Options.Threads threads under
// four configurations.
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
	Threads   int // thread count the three Janus bars were measured at
}

// figure7 measures the four configurations on one of the nine
// parallelisable benchmarks.
func figure7(r *render, name string) (Fig7Row, error) {
	row := Fig7Row{Bench: name, Threads: r.o.Threads}
	ref, err := r.o.Session.Open(r.cache, name, workloads.Ref, workloads.O3)
	if err != nil {
		return row, err
	}
	bare, err := r.o.Session.RunBareDBMBinary(r.cache, ref)
	if err != nil {
		return row, err
	}
	static, err := r.janus(name, workloads.O3, r.o.Threads, staticOnly)
	if err != nil {
		return row, err
	}
	prof, err := r.janus(name, workloads.O3, r.o.Threads, profiled)
	if err != nil {
		return row, err
	}
	rep, err := r.janus(name, workloads.O3, r.o.Threads, full)
	if err != nil {
		return row, err
	}
	bm, _ := workloads.ByName(name)
	row.DBMOnly = float64(rep.Native.Cycles) / float64(bare.Cycles)
	row.Static, row.Profile, row.Janus = static.Speedup(), prof.Speedup(), rep.Speedup()
	row.PaperRef = bm.PaperSpeedup8T
	row.LoopsPar, row.ChecksRun = rep.Selected, rep.Stats.ChecksRun
	return row, nil
}

// RenderFigure7 formats the rows plus the geomean line.
func RenderFigure7(rows []Fig7Row) string {
	var b strings.Builder
	threads := DefaultThreads
	if len(rows) > 0 {
		threads = rows[0].Threads
	}
	fmt.Fprintf(&b, "Figure 7: speedup vs native, %d threads\n", threads)
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

// figure8 measures breakdowns for 1 and Options.Threads threads.
func figure8(r *render, name string) (Fig8Row, error) {
	row := Fig8Row{Bench: name, Threads: r.o.Threads}
	one, err := r.janus(name, workloads.O3, 1, full)
	if err != nil {
		return row, err
	}
	nt, err := r.janus(name, workloads.O3, r.o.Threads, full)
	if err != nil {
		return row, err
	}
	base := float64(one.DBM.Cycles)
	row.One, row.N = breakdownOf(one.DBM, base), breakdownOf(nt.DBM, base)
	return row, nil
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

// figure9 sweeps thread counts 1..Options.Threads.
func figure9(r *render, name string) (Fig9Row, error) {
	row := Fig9Row{Bench: name}
	for n := 1; n <= r.o.Threads; n++ {
		rep, err := r.janus(name, workloads.O3, n, full)
		if err != nil {
			return row, err
		}
		row.Speedups = append(row.Speedups, rep.Speedup())
	}
	return row, nil
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

// figure10 generates the full-Janus schedule for a benchmark and
// compares its serialised size with the binary image size.
func figure10(r *render, name string) (Fig10Row, error) {
	rep, err := r.janus(name, workloads.O3, r.o.Threads, full)
	if err != nil {
		return Fig10Row{}, err
	}
	size := rep.ScheduleSize
	// Normalise against the code section: the paper's SPEC binaries
	// read their reference inputs from files, whereas our synthetic
	// binaries embed them in .data, which would deflate the ratio
	// meaninglessly.
	return Fig10Row{
		Bench:        name,
		ScheduleSize: size,
		BinarySize:   rep.CodeSize,
		Fraction:     float64(size) / float64(rep.CodeSize),
	}, nil
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

// figure11 runs both compilers and Janus on both binary flavours.
func figure11(r *render, name string) (Fig11Row, error) {
	row := Fig11Row{Bench: name}
	engine := compilers.Engine{HostParallel: true, WorkStealing: true}
	auto := func(c compilers.Kind, opt workloads.OptLevel) (float64, error) {
		bin, err := r.o.Session.Open(r.cache, name, workloads.Ref, opt)
		if err != nil {
			return 0, err
		}
		res, err := compilers.ParalleliseBinary(r.o.Session, r.cache, c, bin, r.o.Threads, engine)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c, err)
		}
		return res.Speedup, nil
	}
	var err error
	if row.GccAuto, err = auto(compilers.GCC, workloads.O3); err != nil {
		return row, err
	}
	if row.IccAuto, err = auto(compilers.ICC, workloads.O3AVX); err != nil {
		return row, err
	}
	jg, err := r.janus(name, workloads.O3, r.o.Threads, full)
	if err != nil {
		return row, err
	}
	ji, err := r.janus(name, workloads.O3AVX, r.o.Threads, full)
	if err != nil {
		return row, err
	}
	row.JanusGcc, row.JanusIcc = jg.Speedup(), ji.Speedup()
	return row, nil
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

// figure12 runs Janus on all three optimisation-level builds.
func figure12(r *render, name string) (Fig12Row, error) {
	row := Fig12Row{Bench: name}
	for _, col := range []struct {
		opt workloads.OptLevel
		dst *float64
	}{{workloads.O2, &row.O2}, {workloads.O3, &row.O3}, {workloads.O3AVX, &row.AVX}} {
		rep, err := r.janus(name, col.opt, r.o.Threads, full)
		if err != nil {
			return row, err
		}
		*col.dst = rep.Speedup()
	}
	return row, nil
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

// tableI inspects a benchmark's generated schedule.
func tableI(r *render, name string) (Tab1Row, error) {
	row := Tab1Row{Bench: name}
	rep, err := r.janus(name, workloads.O3, r.o.Threads, full)
	if err != nil {
		return row, err
	}
	ranges := 0
	for _, rule := range rep.Schedule.Rules {
		if d, ok := rule.Data.(interface{ NumChecks() int }); ok {
			row.Loops++
			ranges += d.NumChecks()
		}
	}
	if row.Loops > 0 {
		bm, _ := workloads.ByName(name)
		row.AvgRanges = float64(ranges) / float64(row.Loops)
		row.PaperRef = bm.PaperChecks
	}
	return row, nil
}

// RenderTableI formats the check-count table. Benchmarks without
// checks are absent from it.
func RenderTableI(rows []Tab1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: array-bounds checks per loop requiring them\n")
	fmt.Fprintf(&b, "%-16s %8s %8s %8s\n", "benchmark", "ranges", "loops", "paper")
	for _, r := range rows {
		if r.Loops == 0 {
			continue
		}
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

package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/compilers"
	"janus/internal/dbm"
	"janus/internal/genkern"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
	"janus/internal/workloads"
)

// probeInputs is what a workload hands the layer probes of its traced
// run, so that nothing it already paid for is paid twice.
type probeInputs struct {
	golden      []byte    // the fixture, when already read
	cacheDir    string    // a populated cache directory, when the workload made one
	coldRenders []float64 // seconds of the cold renders that populated it
	rows        int       // benchmark rows of one traced render, when the workload rendered
	overKernels bool      // the stage replay runs over generated kernels, not the registry
	serviceDone bool      // the janusd and pool metrics are already set
}

// layerProbes is the second half of every traced run: it calls each
// layer's public functions from outside, on the workload's inputs, and
// reports time and counts per layer. Layers the workload itself never
// reaches are probed the same way, so every layer has a reading on
// every workload and a change to one shows wherever it is run.
func layerProbes(c *config, r *result, tr *tracer, in probeInputs) error {
	sz := c.sizes
	if in.golden == nil {
		g, err := os.ReadFile(filepath.Join(c.root, goldenPath))
		if err != nil {
			return err
		}
		in.golden = g
	}

	// harness: experiment spans come from the workload's own traced
	// renders (operation index >= 0) or, failing those, from one
	// cache-off render here.
	if len(durations(opSpans(tr), "harness.render")) == 0 {
		rows, err := render(sz.sel, "", in.golden, tr, 0)
		if err != nil {
			return fmt.Errorf("probe render: %w", err)
		}
		in.rows = rows
	}
	if in.cacheDir == "" {
		t := startTimer()
		dir, err := populate(sz.sel, c.tmp, in.golden, nil)
		if err != nil {
			return err
		}
		in.cacheDir, in.coldRenders = dir, []float64{t.seconds()}
	}
	spans := opSpans(tr)
	for _, e := range experimentNames {
		d := durations(spans, "harness."+e)
		r.set("harness."+e+"_s", "s", median(d), len(d))
	}
	r.set("harness.rows", "count", float64(in.rows), 0)
	r.set("harness.cold_render_s", "s", median(in.coldRenders), len(in.coldRenders))

	if err := artcacheProbe(c, r, in); err != nil {
		return err
	}

	// The stage replay runs over the workload's inputs: its kernels if
	// it has any, the registry otherwise. Builds and generation are
	// timed either way; they are layers too.
	regs, err := registryTargets(sz.replayNames, in.cacheDir, tr, r)
	if err != nil {
		return err
	}
	t := startTimer()
	kernels, err := generateKernels(kernelSeeds(c.seed, sz.kernels))
	if err != nil {
		return err
	}
	r.set("genkern.generate_s", "s", t.seconds(), len(kernels))
	targets := regs
	if in.overKernels {
		targets = kernelTargets(kernels)
	}
	if err := replay(c, r, tr, targets, in.cacheDir); err != nil {
		return err
	}

	if !in.serviceDone {
		if err := serviceProbe(c, r, tr, in.golden, in.cacheDir); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	r.set("proc.peak_rss_mb", "MB", peakRSSMB(), 0)
	r.set("go.gc_cpu_share", "share", gcCPUShare(), 0)
	return nil
}

// opSpans are the spans that belong to a workload operation.
func opSpans(tr *tracer) []span {
	var out []span
	for _, s := range tr.snapshot() {
		if s.Op >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// artcacheProbe measures the durable tier: what a warm render reads
// from it, what the store holds, and the raw Get/Put rates on
// benchmark-owned payloads.
func artcacheProbe(c *config, r *result, in probeInputs) error {
	var hits, misses, bad, readMB []float64
	for i := 0; i < 2; i++ {
		rc0, haveIO := readChars()
		d, _, err := warmRender(c.sizes.sel, in.cacheDir, in.golden, nil, -1)
		if err != nil {
			return fmt.Errorf("probe warm render: %w", err)
		}
		hits = append(hits, float64(d.Hits))
		misses = append(misses, float64(d.Misses))
		bad = append(bad, float64(d.BadEntries))
		if rc1, ok := readChars(); ok && haveIO {
			readMB = append(readMB, float64(rc1-rc0)/1e6)
		}
	}
	r.set("artcache.hits_per_render", "count", median(hits), len(hits))
	r.set("artcache.misses_per_render", "count", median(misses), len(misses))
	r.set("artcache.bad_entries", "count", sum(bad), len(bad))
	r.set("proc.read_mb_per_render", "MB", median(readMB), len(readMB))

	var entries int
	var storeB, buildB int64
	err := filepath.WalkDir(in.cacheDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(p) != ".art" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		entries++
		storeB += info.Size()
		if filepath.Base(filepath.Dir(p)) == "build-v1" {
			buildB += info.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("artcache.entries", "count", float64(entries), 0)
	r.set("artcache.store_mb", "MB", float64(storeB)/1e6, 0)
	r.set("artcache.build_kind_mb", "MB", float64(buildB)/1e6, 0)

	dir, err := os.MkdirTemp(c.tmp, "io-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := artcache.Open(dir, artcache.Options{})
	if err != nil {
		return err
	}
	type item struct {
		key     artcache.Key
		payload []byte
	}
	var items []item
	rng := splitmix{s: c.seed}
	for i, size := range c.sizes.ioSizes {
		p := make([]byte, size)
		for j := 0; j+8 <= len(p); j += 8 {
			v := rng.next()
			for b := 0; b < 8; b++ {
				p[j+b] = byte(v >> (8 * b))
			}
		}
		items = append(items, item{artcache.Key{Kind: "bench-v1", Binary: "payload", Input: fmt.Sprint(i)}, p})
	}
	var mb float64
	t := startTimer()
	for _, it := range items {
		if err := store.Put(it.key, it.payload); err != nil {
			return err
		}
		mb += float64(len(it.payload)) / 1e6
	}
	r.set("artcache.put_mb_per_s", "MB/s", mb/t.seconds(), len(items))
	t = startTimer()
	for _, it := range items {
		got, ok := store.Get(it.key)
		if !ok || !bytes.Equal(got, it.payload) {
			r.check(fmt.Errorf("artcache.Get(%s) did not return what Put stored", it.key.Input))
		}
	}
	r.set("artcache.get_mb_per_s", "MB/s", mb/t.seconds(), len(items))
	return nil
}

// target is one program the stage replay drives through the pipeline.
type target struct {
	name       string
	ref, train *obj.Executable
	// avx is the O3AVX build the ICC model compiles; nil runs the
	// model on ref.
	avx  *obj.Executable
	libs []*obj.Library
	// compilers marks programs the compiler models are run on (the
	// figure-11 set).
	compilers bool
}

// registryTargets builds the suite's binaries — every benchmark's ref
// and train O3 builds, plus the O3AVX build of the parallelisable ones
// — timing the cold assembly and the replay from a warm cache.
func registryTargets(names []string, cacheDir string, tr *tracer, r *result) ([]target, error) {
	if names == nil {
		names = workloads.Names()
	}
	par := workloads.ParallelisableNames()
	cache, err := artcache.OpenShared(cacheDir)
	if err != nil {
		return nil, err
	}
	type buildFn func(name string, in workloads.Input, opt workloads.OptLevel) (*obj.Executable, []*obj.Library, error)
	cached := func(name string, in workloads.Input, opt workloads.OptLevel) (*obj.Executable, []*obj.Library, error) {
		return workloads.BuildCached(cache, name, in, opt)
	}
	buildAll := func(span string, build buildFn) ([]target, error) {
		workloads.ResetBuildCache()
		root := tr.begin(span, -1, -1)
		defer tr.end(root)
		var out []target
		for _, name := range names {
			t := target{name: name, compilers: slices.Contains(par, name)}
			var err error
			if t.ref, t.libs, err = build(name, workloads.Ref, workloads.O3); err != nil {
				return nil, err
			}
			if t.train, _, err = build(name, workloads.Train, workloads.O3); err != nil {
				return nil, err
			}
			if t.compilers {
				if t.avx, _, err = build(name, workloads.Ref, workloads.O3AVX); err != nil {
					return nil, err
				}
			}
			out = append(out, t)
		}
		return out, nil
	}
	if _, err := buildAll("workloads.build_cached.fill", cached); err != nil {
		return nil, err
	}
	if _, err := buildAll("workloads.build_warm", cached); err != nil {
		return nil, err
	}
	targets, err := buildAll("workloads.build", workloads.Build)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	r.set("workloads.build_s", "s", sum(durations(spans, "workloads.build")), len(targets))
	r.set("workloads.build_warm_s", "s", sum(durations(spans, "workloads.build_warm")), len(targets))
	return targets, nil
}

func kernelTargets(kernels []*genkern.Kernel) []target {
	out := make([]target, len(kernels))
	for i, k := range kernels {
		out[i] = target{name: k.Name, ref: k.Ref, train: k.Train, libs: k.Libs, compilers: true}
	}
	return out
}

// engine is one way the DBM can run a parallel region.
type engine struct {
	name                       string
	hostParallel, workStealing bool
}

// engines lists the three region engines, the default one last.
var engines = []engine{
	{"roundrobin", false, false},
	{"hostpar", true, false},
	{"steal", true, true},
}

const replayThreads = 8

// staged is what the replay keeps of one target between stages.
type staged struct {
	sched  *rules.Schedule
	native *vm.Result
	ref    *dbm.Result // the first DBM result, which every other run must match
}

// simulated strips the two counters that say which engine ran a
// region; everything else in a result is simulated state and must not
// depend on the engine, the core count or the run.
func simulated(res *dbm.Result) dbm.Result {
	c := *res
	c.MemHash = 0 // worker stacks above DataHashLimit record who ran what
	c.Stats.HostParRegions, c.Stats.StealRegions = 0, 0
	return c
}

func sameSimulation(a, b *dbm.Result) bool {
	x, y := simulated(a), simulated(b)
	return slices.Equal(x.Output, y.Output) && x.Exit == y.Exit && x.Cycles == y.Cycles &&
		x.Insts == y.Insts && x.DataHash == y.DataHash && x.Stats == y.Stats
}

// replay drives every target through the pipeline one stage at a time
// — the calls janus.Parallelise makes, made from here so each can be
// timed — and runs the parallel schedule under every engine at the
// default GOMAXPROCS and at 1. Each DBM result is checked against the
// native interpreter and against the other engines' results.
func replay(c *config, r *result, tr *tracer, targets []target, cacheDir string) error {
	var last []dbm.Stats // default-engine stats of the latest repetition, per target
	var cycles, insts int64
	var loops, selected, schedBytes int
	var trainProgs []*analyzer.Program
	for rep := 0; rep < c.sizes.replayReps; rep++ {
		root := tr.begin("replay", -1, -1)
		st := make([]staged, len(targets))
		last, trainProgs = last[:0], trainProgs[:0]
		cycles, insts, loops, selected, schedBytes = 0, 0, 0, 0, 0
		for i, t := range targets {
			var prog, trainProg *analyzer.Program
			err := tr.time("analyzer.analyze", root, rep, func() (err error) {
				if prog, err = analyzer.Analyze(t.ref); err == nil {
					trainProg, err = analyzer.Analyze(t.train)
				}
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: analyse: %w", t.name, err)
			}
			trainProgs = append(trainProgs, trainProg)
			var pr *janus.ProfileResult
			err = tr.time("profiler.run", root, rep, func() (err error) {
				pr, err = janus.RunProfiling(t.train, trainProg, t.libs...)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: profile: %w", t.name, err)
			}
			err = tr.time("analyzer.schedule", root, rep, func() error {
				prog.ApplyCoverage(pr.Coverage)
				prog.ApplyExclCoverage(pr.ExclCoverage)
				prog.ApplyAvgIters(pr.AvgIters)
				prog.ApplyDependences(pr.Dependences)
				selected += len(prog.SelectLoops(analyzer.SelectOptions{
					UseProfile: true, MinCoverage: analyzer.DefaultMinCoverage, UseChecks: true,
				}))
				sched, err := prog.GenParallelSchedule()
				if err != nil {
					return err
				}
				img, err := sched.Save()
				st[i].sched = sched
				schedBytes += len(img)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: schedule: %w", t.name, err)
			}
			loops += len(prog.Loops)
			err = tr.time("vm.native", root, rep, func() (err error) {
				st[i].native, err = vm.RunNative(t.ref, t.libs...)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: native: %w", t.name, err)
			}
			insts += st[i].native.Insts
			if t.compilers {
				err = tr.time("compilers.parallelise", root, rep, func() error {
					eng := compilers.Engine{HostParallel: true, WorkStealing: true}
					if _, err := compilers.Parallelise(compilers.GCC, t.ref, replayThreads, eng, t.libs...); err != nil {
						return err
					}
					icc := t.ref
					if t.avx != nil {
						icc = t.avx
					}
					_, err := compilers.Parallelise(compilers.ICC, icc, replayThreads, eng, t.libs...)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s: compiler models: %w", t.name, err)
				}
			}
		}
		for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
			suffix := ""
			if procs == 1 {
				suffix = "_p1"
			}
			prev := runtime.GOMAXPROCS(procs)
			for i, t := range targets {
				for _, e := range engines {
					cfg := dbm.DefaultConfig(replayThreads)
					cfg.HostParallel, cfg.WorkStealing = e.hostParallel, e.workStealing
					isDefault := suffix == "" && e.name == "steal"
					newSpan := "dbm.new"
					if !isDefault {
						newSpan += "/" + e.name + suffix
					}
					var ex *dbm.Executor
					err := tr.time(newSpan, root, rep, func() (err error) {
						ex, err = dbm.New(t.ref, st[i].sched, cfg, t.libs...)
						return err
					})
					if err != nil {
						runtime.GOMAXPROCS(prev)
						return fmt.Errorf("%s: dbm.New: %w", t.name, err)
					}
					var res *dbm.Result
					err = tr.time("dbm.run_"+e.name+suffix, root, rep, func() (err error) {
						res, err = ex.Run()
						return err
					})
					if err != nil {
						r.check(fmt.Errorf("%s under %s%s: %w", t.name, e.name, suffix, err))
						continue
					}
					nat := st[i].native
					if !slices.Equal(res.Output, nat.Output) || res.DataHash != nat.DataHash {
						r.check(fmt.Errorf("%s under %s%s: output or memory differs from the native interpreter", t.name, e.name, suffix))
						continue
					}
					if st[i].ref == nil {
						st[i].ref = res
					}
					if !sameSimulation(res, st[i].ref) {
						r.check(fmt.Errorf("%s under %s%s: simulated result differs from the first engine's", t.name, e.name, suffix))
						continue
					}
					r.check(nil)
					if isDefault {
						last = append(last, res.Stats)
						cycles += res.Cycles
					}
				}
			}
			runtime.GOMAXPROCS(prev)
		}
		tr.end(root)
	}

	spans := opSpans(tr)
	perRep := func(name string) []float64 {
		by := map[int]float64{}
		for _, s := range spans {
			if s.Name == name {
				by[s.Op] += s.seconds()
			}
		}
		out := make([]float64, 0, len(by))
		for _, v := range by {
			out = append(out, v)
		}
		return out
	}
	timeOf := func(metric, spanName string) float64 {
		v := perRep(spanName)
		r.set(metric, "s", median(v), len(v))
		return median(v)
	}
	timeOf("analyzer.analyze_s", "analyzer.analyze")
	timeOf("analyzer.schedule_s", "analyzer.schedule")
	timeOf("profiler.run_s", "profiler.run")
	nativeS := timeOf("vm.native_s", "vm.native")
	timeOf("compilers.parallelise_s", "compilers.parallelise")
	timeOf("dbm.new_s", "dbm.new")
	var defaultS float64
	for _, suffix := range []string{"", "_p1"} {
		for _, e := range engines {
			s := timeOf("dbm.run_"+e.name+suffix+"_s", "dbm.run_"+e.name+suffix)
			if suffix == "" && e.name == "steal" {
				defaultS = s
			}
		}
	}
	r.set("vm.native_minst_per_s", "Minst/s", float64(insts)/1e6/nativeS, len(targets))
	r.set("dbm.guest_minst_per_s", "Minst/s", float64(insts)/1e6/defaultS, len(targets))

	var tot dbm.Stats
	for _, s := range last {
		tot.ParRegions += s.ParRegions
		tot.HostParRegions += s.HostParRegions
		tot.StealRegions += s.StealRegions
		tot.TransBlocks += s.TransBlocks
		tot.ChecksRun += s.ChecksRun
		tot.ChecksFailed += s.ChecksFailed
		tot.TxStarted += s.TxStarted
		tot.TxAborts += s.TxAborts
		tot.SeqFallbacks += s.SeqFallbacks
		tot.ParRecoveries += s.ParRecoveries
	}
	count := func(name string, v int64) { r.set(name, "count", float64(v), 0) }
	count("analyzer.loops", int64(loops))
	count("analyzer.selected_loops", int64(selected))
	count("rules.schedule_bytes", int64(schedBytes))
	count("dbm.virtual_cycles", cycles)
	count("dbm.par_regions", tot.ParRegions)
	count("dbm.hostpar_regions", tot.HostParRegions)
	count("dbm.steal_regions", tot.StealRegions)
	count("dbm.trans_blocks", tot.TransBlocks)
	count("dbm.checks_run", tot.ChecksRun)
	count("dbm.checks_failed", tot.ChecksFailed)
	count("dbm.tx_started", tot.TxStarted)
	count("dbm.seq_fallbacks", tot.SeqFallbacks)
	count("dbm.par_recoveries", tot.ParRecoveries)
	r.set("dbm.tx_abort_share", "share", float64(tot.TxAborts)/float64(max(tot.TxStarted, 1)), 0)

	return cachedEntryPoints(r, tr, targets, trainProgs, cacheDir)
}

// cachedEntryPoints times the three *Cached entry points of package
// janus replaying from the durable tier: one untimed pass makes sure
// every entry is on disk, the memos are dropped, and the second pass
// is what a warm process pays per stage.
func cachedEntryPoints(r *result, tr *tracer, targets []target, trainProgs []*analyzer.Program, cacheDir string) error {
	cache, err := artcache.OpenShared(cacheDir)
	if err != nil {
		return err
	}
	for _, pass := range []string{"/fill", ""} {
		janus.ResetMemos()
		root := tr.begin("janus.cached"+pass, -1, -1)
		for i, t := range targets {
			err := tr.time("janus.native_warm"+pass, root, -1, func() error {
				_, err := janus.RunNativeBaselineCached(cache, t.ref, t.libs...)
				return err
			})
			if err == nil {
				err = tr.time("janus.profile_warm"+pass, root, -1, func() error {
					_, err := janus.RunProfilingCached(cache, t.train, trainProgs[i], t.libs...)
					return err
				})
			}
			if err == nil {
				err = tr.time("janus.bare_dbm_warm"+pass, root, -1, func() error {
					_, err := janus.RunBareDBMCached(cache, t.ref, t.libs...)
					return err
				})
			}
			if err != nil {
				return fmt.Errorf("%s: cached entry points: %w", t.name, err)
			}
		}
		tr.end(root)
	}
	spans := tr.snapshot()
	for _, m := range []string{"native_warm", "profile_warm", "bare_dbm_warm"} {
		d := durations(spans, "janus."+m)
		r.set("janus."+m+"_s", "s", sum(d), len(d))
	}
	return nil
}

// Command janus drives the Janus pipeline from the command line over
// the built-in workload suite:
//
//	janus analyze  -bench 470.lbm            static analysis report
//	janus profile  -bench 470.lbm            statically-driven profiling
//	janus schedule -bench 470.lbm -o x.jrs   emit the rewrite schedule
//	janus run      -bench 470.lbm -threads 8 parallelise and execute
//	janus run      -bench 470.lbm -schedule x.jrs
//	                                         execute under a schedule file
//	                                         (no analysis, no profiling)
//	janus disasm   -bench 470.lbm            disassemble the binary
//
// With a janusd daemon running, the bench subcommand renders the
// evaluation suite remotely as a thin client:
//
//	janus bench -server http://127.0.0.1:7117           full suite
//	janus bench -server ... -fig 7 -deadline 30s        one figure, bounded
//
// Shed (429) and draining (503) answers are retried up to 8 times with
// jittered exponential backoff from 50ms, capped at 2s (-seed picks the
// jitter stream); the rendered bytes land on stdout exactly as a local
// janus-bench run would print them.
//
// Generated kernels are fuzzed with the toolchain's fuzzer, not by
// this command:
//
//	go test -fuzz=FuzzShapeVector ./internal/genkern
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"janus"
	"janus/internal/analyzer"
	"janus/internal/artcache"
	"janus/internal/dbm"
	"janus/internal/guest"
	"janus/internal/obj"
	"janus/internal/rules"
	"janus/internal/vm"
	"janus/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	switch cmd {
	case "bench":
		benchClient(os.Args[2:])
		return
	case "analyze", "profile", "schedule", "run", "disasm", "list":
	default:
		usage()
		os.Exit(2)
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	bench := fs.String("bench", "470.lbm", "workload name (see 'janus list')")
	threads := fs.Int("threads", 8, "parallel thread count")
	input := fs.String("input", "ref", "input set: train or ref")
	opt := fs.String("opt", "O3", "optimisation level: O2, O3, O3avx")
	out := fs.String("o", "", "output file for 'schedule'")
	schedFile := fs.String("schedule", "", "for 'run': execute under this rewrite-schedule file (written by 'schedule -o') instead of analysing and profiling the binary")
	noProfile := fs.Bool("no-profile", false, "disable profile-guided selection")
	noChecks := fs.Bool("no-checks", false, "disable runtime checks and speculation")
	cacheDir := fs.String("cache-dir", "", "durable artifact cache directory (empty = off); results are identical with the cache off, cold or warm")
	_ = fs.Parse(os.Args[2:])

	if cmd == "list" {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}

	var in workloads.Input
	switch *input {
	case "ref":
		in = workloads.Ref
	case "train":
		in = workloads.Train
	default:
		usageError("unknown -input %q (want train or ref)", *input)
	}
	var level workloads.OptLevel
	switch *opt {
	case "O2":
		level = workloads.O2
	case "O3":
		level = workloads.O3
	case "O3avx":
		level = workloads.O3AVX
	default:
		usageError("unknown -opt %q (want O2, O3 or O3avx)", *opt)
	}
	var cache *artcache.Cache
	if *cacheDir != "" {
		var err error
		cache, err = artcache.OpenShared(*cacheDir)
		if err != nil {
			fatal(err)
		}
	}
	// schedule and run work on the handle, so against a warm -cache-dir
	// they replay without the image; the inspecting subcommands load it.
	bin, err := workloads.Open(cache, *bench, in, level)
	if err != nil {
		fatal(err)
	}
	cfg := janus.Config{
		Threads:    *threads,
		UseProfile: !*noProfile,
		UseChecks:  !*noChecks,
		Cache:      cache,
	}
	switch cmd {
	case "schedule":
		rep, err := janus.ParalleliseBinary(bin, nil, cfg)
		if err != nil {
			fatal(err)
		}
		img, err := rep.Schedule.Save()
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := os.WriteFile(*out, img, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d bytes (%d rules) to %s\n", len(img), len(rep.Schedule.Rules), *out)
		} else {
			for _, r := range rep.Schedule.Rules {
				fmt.Println(r)
			}
			// Against the code section, as figure 10 normalises: the
			// synthetic binaries embed their inputs in .data.
			fmt.Printf("# %d rules, %d bytes serialised (%.1f%% of binary)\n",
				len(rep.Schedule.Rules), len(img), 100*float64(len(img))/float64(rep.CodeSize))
		}
		return

	case "run":
		if *schedFile != "" {
			runSchedule(cache, bin, *schedFile, *threads)
			return
		}
		cfg.Verify = true
		rep, err := janus.ParalleliseBinary(bin, nil, cfg)
		if err != nil {
			fatal(err)
		}
		printRun(rep.Schedule, rep.Native, rep.DBM, rep.Selected, *threads)
		return
	}

	exe, libs, err := bin.Image()
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "analyze":
		prog, err := analyzer.Analyze(exe)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d functions, %d loops\n", exe.Name, len(prog.CFG.Funcs), len(prog.Loops))
		counts := prog.ClassCounts()
		var classes []analyzer.Class
		for c := range counts {
			classes = append(classes, c)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, c := range classes {
			fmt.Printf("  %-16s %d\n", c, counts[c])
		}
		// No profile here: the check is static selection's verdict.
		prog.SelectLoops(analyzer.SelectOptions{UseChecks: cfg.UseChecks})
		for _, li := range prog.Loops {
			check := string(li.Rejected)
			if li.Selected {
				check = "selected"
			}
			fmt.Printf("loop %2d @%#x depth=%d class=%-14s check=%-19s %s\n",
				li.ID, li.Loop.Header.Addr, li.Loop.Depth, li.Class, check, li.Sym)
		}

	case "profile":
		prog, err := analyzer.Analyze(exe)
		if err != nil {
			fatal(err)
		}
		pr, err := janus.RunProfilingCached(cache, exe, prog, libs...)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-6s %-10s %-10s %-10s %s\n", "loop", "coverage", "avg-iter", "dep", "class")
		ids := make([]int, 0, len(pr.Coverage))
		for id := range pr.Coverage {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			li := prog.LoopByID(id)
			dep := "-"
			if d, ok := pr.Dependences[id]; ok {
				dep = fmt.Sprintf("%v", d)
			}
			fmt.Printf("%-6d %9.2f%% %10.1f %-10s %s\n", id, 100*pr.Coverage[id], pr.AvgIters[id], dep, li.Class)
		}

	case "disasm":
		insts, err := exe.Decode()
		if err != nil {
			fatal(err)
		}
		for i, in := range insts {
			addr := exe.CodeBase + uint64(i)*guest.InstSize
			fmt.Printf("%#x\t%s\n", addr, in)
		}
	}
}

// runSchedule is the online half alone: the schedule comes from a file
// 'schedule -o' wrote, the binary is executed under it and held to
// native execution. A file generated for another binary is refused by
// the DBM (rules.ErrWrongBinary).
func runSchedule(cache *artcache.Cache, bin *obj.Binary, file string, threads int) {
	img, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	sched, err := rules.Load(img)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", file, err))
	}
	native, res, err := janus.RunScheduleBinary(cache, bin, sched, dbm.DefaultConfig(threads))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", file, err))
	}
	if err := janus.Verify(native, res); err != nil {
		fatal(err)
	}
	loops := map[int32]bool{}
	for _, r := range sched.Rules {
		loops[r.LoopID] = true
	}
	printRun(sched, native, res, len(loops), threads)
}

// printRun prints the report block of a verified run.
func printRun(sched *rules.Schedule, native *vm.Result, res *dbm.Result, selected, threads int) {
	st := res.Stats
	fmt.Printf("%s: speedup %.2fx over native (%d threads)\n", sched.ExeName, float64(native.Cycles)/float64(res.Cycles), threads)
	fmt.Printf("  native cycles      %12d\n", native.Cycles)
	fmt.Printf("  janus cycles       %12d\n", res.Cycles)
	fmt.Printf("  loops selected     %12d\n", selected)
	fmt.Printf("  parallel regions   %12d (host-parallel %d, fallbacks %d)\n", st.ParRegions, st.HostParRegions, st.SeqFallbacks)
	fmt.Printf("  checks run/failed  %9d/%d\n", st.ChecksRun, st.ChecksFailed)
	fmt.Printf("  tx start/commit/abort %6d/%d/%d\n", st.TxStarted, st.TxCommits, st.TxAborts)
	fmt.Printf("  blocks translated  %12d (%d insts)\n", st.TransBlocks, st.TransInsts)
	fmt.Println("  verification       OK (outputs and memory match native)")
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: janus <analyze|profile|schedule|run|disasm|list|bench> [flags]`)
}

// usageError reports a command line the tool cannot act on and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "janus: "+format+"\n", args...)
	usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "janus:", err)
	os.Exit(1)
}

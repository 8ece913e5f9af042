// Command bench is the repository's measurement spine: four workloads
// that stress different layers of the Janus reproduction, six
// end-to-end metrics on each, and a traced run that times every layer
// from outside through its public functions. BENCHMARK.json at the
// repository root names the workloads, metrics, units, directions and
// regression bounds; README.md here says why each was chosen and how
// they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// sizes are the knobs that differ between a measuring run and the
// smoke run the tests use; nothing else branches on smoke.
type sizes struct {
	sel       selection // what one render covers
	setupReps int       // set-ups per run; setup_s is their median
	minOps    int       // operations per window, whatever their length
	kernels   int       // generated kernels per sweep
	// service mix, the kinds learnt for verification, warm-up length,
	// and the traced run's short service probe
	mix, learn    []string
	serviceWarmup time.Duration
	probeWindow   time.Duration
	overloadKind  string
	// traced run: registry benchmarks replayed stage by stage (nil =
	// all) and repetitions of the replay
	replayNames []string
	replayReps  int
	// payload sizes of the artcache Get/Put probe
	ioSizes []int
}

func measuringSizes(workload string) sizes {
	s := sizes{
		setupReps: 1, minOps: 3, kernels: 300,
		mix: experimentNames[:8], learn: experimentNames,
		serviceWarmup: 2 * time.Second, probeWindow: 4 * time.Second, overloadKind: "fig9",
		replayReps: 3,
		// What the suite stores: kilobyte results, ten-megabyte build images.
		ioSizes: []int{4 << 10, 4 << 10, 4 << 10, 4 << 10, 10 << 20, 10 << 20, 10 << 20},
	}
	switch workload {
	case "suite_warm":
		s.setupReps = 2
	case "pipeline_gen":
		s.setupReps = 3
	}
	return s
}

func smokeSizes() sizes {
	return sizes{
		sel: selection{table: 2}, setupReps: 1, minOps: 2, kernels: 4,
		mix: []string{"tab2"}, learn: []string{"tab2"},
		serviceWarmup: 20 * time.Millisecond, probeWindow: 100 * time.Millisecond, overloadKind: "tab2",
		replayNames: []string{"464.h264ref"}, replayReps: 1,
		ioSizes: []int{4 << 10, 64 << 10},
	}
}

// config is one run's settings.
type config struct {
	root     string // repository root
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	sizes    sizes
	tmp      string // scratch directory under bench/out, removed on exit
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func (c *config) outDir() string { return filepath.Join(c.root, "bench", "out") }

// writeTrace stores the spans of a traced run; a failure to write is
// noted, not fatal, because the metrics are already computed.
func (c *config) writeTrace(tr *tracer, r *result) {
	path := filepath.Join(c.outDir(), "trace-"+c.workload+".json")
	if err := tr.write(path, c.workload, c.seed); err != nil {
		r.notef("trace not written: %v", err)
		return
	}
	r.notef("trace: %s (%d spans)", path, len(tr.snapshot()))
}

type timer struct{ t0 time.Time }

func startTimer() timer          { return timer{time.Now()} }
func (t timer) seconds() float64 { return time.Since(t.t0).Seconds() }

// runWorkload runs one workload in this process and returns its
// result; err is set when the workload could not complete, in which
// case the result holds what was measured until then.
func runWorkload(c *config) (*result, error) {
	if err := os.MkdirAll(c.outDir(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(c.outDir(), "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	c.tmp = tmp

	r := newResult(c)
	switch c.workload {
	case "suite_off":
		err = runSuite(c, r, false)
	case "suite_warm":
		err = runSuite(c, r, true)
	case "pipeline_gen":
		err = runPipeline(c, r)
	case "service_warm":
		err = runService(c, r)
	default:
		err = fmt.Errorf("unknown workload %q", c.workload)
	}
	if err != nil {
		r.check(err)
	}
	r.Attempted = max(r.Attempted, 1)
	r.Correct = r.Failed == 0
	return r, err
}

// appendRecord adds the run to a file of JSON lines, the form -compare
// reads: one file is one set of runs.
func appendRecord(path string, r *result) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll re-executes this binary once per workload, so memos, heap and
// page-table state never leak from one workload into the next.
func runAll(spec *benchSpec, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var errs []error
	for _, w := range spec.workloadNames() {
		cmd := exec.Command(self, append([]string{"-workload", w}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("workload %s: %w", w, err))
		}
	}
	return errors.Join(errs...)
}

func main() {
	var c config
	var trace string
	var smoke, compare bool
	flag.StringVar(&c.root, "root", ".", "repository root (holds BENCHMARK.json)")
	flag.StringVar(&c.workload, "workload", "all", "workload name, or all (one fresh process each)")
	flag.Uint64Var(&c.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.Float64Var(&c.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.StringVar(&trace, "trace", "0", "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&c.out, "out", "", "append the run as a JSON line to this file (input of -compare)")
	flag.BoolVar(&smoke, "smoke", false, "tiny sizes: checks the plumbing, measures nothing")
	flag.BoolVar(&compare, "compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	spec, err := loadSpec(c.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two files")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if c.trace, err = strconv.ParseBool(trace); err != nil {
		fmt.Fprintln(os.Stderr, "bench: -trace:", err)
		os.Exit(2)
	}
	if c.seconds <= 0 {
		c.seconds = float64(spec.RunSeconds)
	}
	if c.workload == "all" {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		if err := runAll(spec, args); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	c.sizes = measuringSizes(c.workload)
	if smoke {
		c.sizes = smokeSizes()
	}

	r, err := runWorkload(&c)
	if r == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	want := spec.EndToEnd
	if c.trace {
		want = spec.PerLayer
	}
	if perr := r.print(os.Stdout, want); perr != nil {
		fmt.Fprintln(os.Stderr, "bench:", perr)
		os.Exit(1)
	}
	if c.out != "" {
		if oerr := appendRecord(c.out, r); oerr != nil {
			fmt.Fprintln(os.Stderr, "bench:", oerr)
			os.Exit(1)
		}
	}
	if err != nil || !r.Correct {
		os.Exit(1)
	}
}

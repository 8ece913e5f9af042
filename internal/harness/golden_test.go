package harness

// Golden-output regression test: testdata/janus-bench.golden is the
// canonical full `janus-bench` text output (every figure and table, in
// print order). A fresh render must match it byte for byte — under the
// default configuration and under every axis the determinism contract
// pins: -jobs 1 vs N, GOMAXPROCS 1 vs N. Any scheduler, partitioner or
// engine change that perturbs a single figure byte fails here loudly.
//
// Regenerate the fixture after an intentional output change with:
//
//	go test ./internal/harness -run TestGoldenOutput -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"janus"
	"janus/internal/obj"
	"janus/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/janus-bench.golden from a fresh render")

const goldenPath = "testdata/janus-bench.golden"

// freshRuns drops the process's memoised plans and results, so the next
// render executes its DBM runs instead of being handed the previous
// cell's — a matrix cell that compares a memo with itself pins nothing —
// and returns a check, to be called after the render, that it did.
func freshRuns(t *testing.T) (executed func()) {
	t.Helper()
	janus.ResetMemos()
	before := janus.TierStats()["dbm-v2"].Computed
	return func() {
		t.Helper()
		if janus.TierStats()["dbm-v2"].Computed == before {
			t.Fatal("the render executed no DBM run: it replayed another configuration's memoised results")
		}
	}
}

// renderSuite regenerates the full suite under o.
func renderSuite(t *testing.T, o Options) string {
	t.Helper()
	out, err := RenderAll(o, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffGolden reports the first line where got departs from want.
func diffGolden(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	g, w := "<eof>", "<eof>"
	if line < len(gl) {
		g = gl[line]
	}
	if line < len(wl) {
		w = wl[line]
	}
	t.Errorf("%s: output departs from %s at line %d:\n got: %q\nwant: %q\n(%d vs %d bytes; run with -update after an intentional change)",
		label, goldenPath, line+1, g, w, len(got), len(want))
}

func readGolden(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("missing golden fixture (generate with -update): %v", err)
	}
	return string(data)
}

// suiteBinary is one build the full render loads machines from.
type suiteBinary struct {
	name string
	in   workloads.Input
	opt  workloads.OptLevel
	exe  *obj.Executable
	libs []*obj.Library
	id   string
}

// suiteBinaries builds (through the shared build cache, so the render
// that follows runs on these very executables) every binary the suite
// uses — figure 6's train builds of all benchmarks and each
// parallelisable benchmark at every input and optimisation level — and
// hashes each one.
func suiteBinaries(t *testing.T) []suiteBinary {
	t.Helper()
	var bins []suiteBinary
	add := func(name string, in workloads.Input, opt workloads.OptLevel) {
		exe, libs, err := workloads.Build(name, in, opt)
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, suiteBinary{name, in, opt, exe, libs, obj.NewBinary(exe, libs...).ID()})
	}
	parallel := map[string]bool{}
	for _, name := range workloads.ParallelisableNames() {
		parallel[name] = true
		for _, in := range []workloads.Input{workloads.Train, workloads.Ref} {
			for _, opt := range []workloads.OptLevel{workloads.O2, workloads.O3, workloads.O3AVX} {
				add(name, in, opt)
			}
		}
	}
	for _, name := range workloads.Names() {
		if !parallel[name] {
			add(name, workloads.Train, workloads.O3)
		}
	}
	return bins
}

func TestGoldenOutput(t *testing.T) {
	bins := suiteBinaries(t)
	got := renderSuite(t, DefaultOptions())
	// Machines map an executable's section bytes instead of copying
	// them, so hundreds of runs have just executed over these bytes:
	// every binary must still be, bit for bit, the one that was built.
	for _, b := range bins {
		if exe, _, err := workloads.Build(b.name, b.in, b.opt); err != nil || exe != b.exe {
			t.Fatalf("%s %s %s: the render ran on another build (%v)", b.name, b.in, b.opt, err)
		}
		if id := obj.NewBinary(b.exe, b.libs...).ID(); id != b.id {
			t.Errorf("%s %s %s: identity after the render %s, before it %s: a run wrote through to its executable", b.name, b.in, b.opt, id, b.id)
		}
	}
	if *update {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	diffGolden(t, "default options", got, readGolden(t))
}

// TestGoldenAcrossConfigurations renders the suite under every
// determinism axis and compares each render against the committed
// fixture byte for byte.
func TestGoldenAcrossConfigurations(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite renders across four configurations; run without -short")
	}
	want := readGolden(t)
	jobsN := max(runtime.NumCPU(), 4)
	cases := []struct {
		name       string
		opts       func() Options
		gomaxprocs int
	}{
		{"jobs=1", func() Options { o := DefaultOptions(); o.Jobs = 1; return o }, 0},
		{fmt.Sprintf("jobs=%d", jobsN), func() Options { o := DefaultOptions(); o.Jobs = jobsN; return o }, 0},
		{"gomaxprocs=1", DefaultOptions, 1},
		{fmt.Sprintf("gomaxprocs=%d", jobsN), DefaultOptions, jobsN},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.gomaxprocs > 0 {
				prev := runtime.GOMAXPROCS(tc.gomaxprocs)
				defer runtime.GOMAXPROCS(prev)
			}
			executed := freshRuns(t)
			diffGolden(t, tc.name, renderSuite(t, tc.opts()), want)
			executed()
		})
	}
}

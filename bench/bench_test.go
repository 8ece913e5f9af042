package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const repoRoot = ".."

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentiles(t *testing.T) {
	v := []float64{9, 1, 5, 3, 7}
	if got := median(v); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(v, 90); !near(got, 8.2) {
		t.Errorf("p90 = %v, want 8.2", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {5000, 95}} {
		if got := tailPercentile(c.n, 50, 90, 95); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(ten); !near(got, 1) {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0].
	if got := quartileSpread([]float64{13, 10, 11}); !near(got, 3.0/11) {
		t.Errorf("quartileSpread(10,11,13) = %v, want %v", got, 3.0/11)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 10e9, Parent: -1},
		{Name: "a", Start: 2e9, End: 5e9, Parent: 0},
		{Name: "b", Start: 4e9, End: 7e9, Parent: 0},  // overlaps a
		{Name: "c", Start: 9e9, End: 12e9, Parent: 0}, // clipped to the parent
	}
	self := selfSeconds(spans)
	if want := []float64{4, 3, 3, 3}; !slices.Equal(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
}

func TestSeededInputs(t *testing.T) {
	kinds := make([]kind, 0, 8)
	for _, n := range experimentNames[:8] {
		k, err := parseKind(n)
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, k)
	}
	draw := func(seed uint64, client int) []string {
		m := newMixStream(seed, client, kinds)
		out := make([]string, 40)
		for i := range out {
			out[i] = m.next().name
		}
		return out
	}
	a := draw(7, 0)
	if !slices.Equal(a, draw(7, 0)) {
		t.Error("same seed and client gave different request sequences")
	}
	if slices.Equal(a, draw(8, 0)) || slices.Equal(a, draw(7, 1)) {
		t.Error("another seed or client gave the same request sequence")
	}
	for r := 0; r < len(a); r += len(kinds) {
		round := slices.Clone(a[r : r+len(kinds)])
		slices.Sort(round)
		want := slices.Clone(experimentNames[:8])
		slices.Sort(want)
		if !slices.Equal(round, want) {
			t.Errorf("round %d is not a permutation of the kinds: %v", r/len(kinds), round)
		}
	}
	if !slices.Equal(kernelSeeds(3, 50), kernelSeeds(3, 50)) || slices.Equal(kernelSeeds(3, 50), kernelSeeds(4, 50)) {
		t.Error("kernel seeds do not follow the run seed")
	}
	if _, err := parseKind("table1"); err == nil {
		t.Error("parseKind accepted a malformed kind")
	}
}

func TestTile(t *testing.T) {
	fixture := []byte("alpha\n\nbeta\n\ngamma\n\n")
	bodies := []string{"alpha\n\n", "beta\n\n", "gamma\n\n"}
	if err := tile(fixture, bodies); err != nil {
		t.Errorf("exact tiling rejected: %v", err)
	}
	if err := tile(fixture, bodies[:2]); err == nil {
		t.Error("short tiling accepted")
	}
	if err := tile(fixture, []string{"alpha\n\n", "bet4\n\n", "gamma\n\n"}); err == nil {
		t.Error("one-byte difference accepted")
	}
	if err := tile(fixture, []string{"alpha\n\n", "", "beta\n\n", "gamma\n\n"}); err == nil {
		t.Error("empty body accepted")
	}
}

// TestSpecWellFormed holds BENCHMARK.json to the limits the driver
// states, so a later edit cannot make the file unloadable.
func TestSpecWellFormed(t *testing.T) {
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !metricNameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	for _, e := range exactMetrics {
		if !seen[e] {
			t.Errorf("exact metric %s is not in BENCHMARK.json", e)
		}
	}
}

func smokeConfig(root, workload string, trace bool) *config {
	return &config{root: root, workload: workload, seed: 1, seconds: 0.05, trace: trace, sizes: smokeSizes()}
}

// TestSmokeEmitsEveryMetric runs every workload with tiny sizes, with
// and without tracing, and checks that the names it prints and the
// names in BENCHMARK.json are the same set, under the same units.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]string{}
	for _, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		known[m.Name] = m.Unit
	}
	for _, w := range spec.workloadNames() {
		for _, trace := range []bool{false, true} {
			r, err := runWorkload(smokeConfig(repoRoot, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d notes=%v", w, trace, r.Correct, r.Failed, r.Attempted, r.Notes)
			}
			want := spec.EndToEnd
			if trace {
				want = append(slices.Clone(want), spec.PerLayer...)
			}
			var out bytes.Buffer
			if err := r.print(&out, want); err != nil {
				t.Errorf("%s trace=%t: %v", w, trace, err)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics produced, %d wanted", w, trace, len(r.Metrics), len(want))
			}
			for name, m := range r.Metrics {
				if unit, ok := known[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s [%s] is not in BENCHMARK.json (unit there: %q)", w, trace, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %v", w, trace, name, m.Value)
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("%s trace=%t: last line is %q", w, trace, last)
			}
		}
	}
	if entries, _ := filepath.Glob(filepath.Join(repoRoot, "bench", "out", "tmp-*")); len(entries) != 0 {
		t.Errorf("scratch directories left behind: %v", entries)
	}
}

// plantedRoot is a repository root whose fixture differs from the
// committed one in a single byte.
func plantedRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	golden, err := os.ReadFile(filepath.Join(repoRoot, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	golden[len(golden)-10] ^= 1
	for path, data := range map[string][]byte{goldenPath: golden, digestFile: []byte("seed=1 kernels=4 sha256=00\n")} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, path)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, path), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestPlantedDifferenceFails: one differing byte in the reference, or
// a wrong committed digest, must fail the run and show in the failed
// count.
func TestPlantedDifferenceFails(t *testing.T) {
	root := plantedRoot(t)
	for _, w := range []string{"suite_off", "suite_warm", "pipeline_gen", "service_warm"} {
		r, err := runWorkload(smokeConfig(root, w, false))
		if r == nil {
			t.Fatalf("%s: no result: %v", w, err)
		}
		if r.Correct || r.Failed == 0 || float64(r.Failed)/float64(r.Attempted) <= 0 {
			t.Errorf("%s: planted difference went unnoticed: correct=%t failed=%d attempted=%d err=%v", w, r.Correct, r.Failed, r.Attempted, err)
		}
		var out bytes.Buffer
		_ = r.print(&out, nil)
		if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "FAILED") {
			t.Errorf("%s: output does not report the failure:\n%s", w, out.String())
		}
	}
}

func record(workload string, seed uint64, trace bool, host hostInfo, metrics map[string]float64) result {
	r := result{Workload: workload, Seed: seed, Trace: trace, Host: host, Correct: true, Attempted: 1, Metrics: map[string]reading{}}
	for n, v := range metrics {
		r.Metrics[n] = reading{Value: v, Unit: "s"}
	}
	return r
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "op_s", Unit: "s", Better: "lower", Bound: 0.10},
			{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		},
	}
	host := hostInfo{NProc: 2, GOMAXPROCS: 2}
	write := func(name string, recs ...result) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range recs {
			if err := appendRecord(path, &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	set := func(host hostInfo, opS, rate []float64) []result {
		var out []result
		for i := range opS {
			out = append(out, record("w", uint64(i), false, host, map[string]float64{"op_s": opS[i], "ops_per_s": rate[i]}))
		}
		return out
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	base := write("a.json", set(host, steady, steady)...)
	rows := func(a, b string) (string, bool) {
		var out bytes.Buffer
		worse, err := compareFiles(&out, spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), worse
	}
	verdictOf := func(out, metric string) string {
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) < 2 || f[1] != metric {
				continue
			}
			for _, word := range f[2:] {
				if word == "ok" || word == "worse" || word == "unresolved" {
					return word
				}
			}
		}
		return "missing"
	}

	out, worse := rows(base, base)
	if worse || verdictOf(out, "op_s") != "ok" || verdictOf(out, "ops_per_s") != "ok" {
		t.Errorf("A/A not ok:\n%s", out)
	}
	slow := []float64{1.20, 1.21, 1.19, 1.20, 1.22}
	out, worse = rows(base, write("slow.json", set(host, slow, steady)...))
	if !worse || verdictOf(out, "op_s") != "worse" || verdictOf(out, "ops_per_s") != "ok" {
		t.Errorf("20%% slower op_s not worse:\n%s", out)
	}
	// Higher is better: a lower rate is worse, a higher one is not.
	out, worse = rows(base, write("rate.json", set(host, steady, []float64{0.8, 0.81, 0.79, 0.8, 0.8})...))
	if !worse || verdictOf(out, "ops_per_s") != "worse" {
		t.Errorf("20%% lower rate not worse:\n%s", out)
	}
	out, worse = rows(base, write("fast.json", set(host, []float64{0.5, 0.5, 0.5, 0.5, 0.5}, slow)...))
	if worse || verdictOf(out, "op_s") != "ok" || verdictOf(out, "ops_per_s") != "ok" {
		t.Errorf("improvement not ok:\n%s", out)
	}
	noisy := []float64{0.8, 1.3, 1.0, 0.7, 1.25}
	out, worse = rows(base, write("noisy.json", set(host, noisy, steady)...))
	if worse || verdictOf(out, "op_s") != "unresolved" {
		t.Errorf("spread beyond the bound not unresolved:\n%s", out)
	}
	other := hostInfo{NProc: 8, GOMAXPROCS: 8}
	out, worse = rows(base, write("other.json", set(other, steady, steady)...))
	if worse || verdictOf(out, "op_s") != "unresolved" {
		t.Errorf("different host not unresolved:\n%s", out)
	}

	exactA := write("ea.json", record("w", 1, true, host, map[string]float64{"dbm.virtual_cycles": 100}))
	exactB := write("eb.json", record("w", 1, true, host, map[string]float64{"dbm.virtual_cycles": 101}))
	if out, worse := rows(exactA, exactA); worse || verdictOf(out, "dbm.virtual_cycles") == "missing" {
		t.Errorf("equal exact counts flagged:\n%s", out)
	}
	if out, worse := rows(exactA, exactB); !worse {
		t.Errorf("differing exact counts not flagged:\n%s", out)
	}
}

func TestPrintRejectsMissingMetric(t *testing.T) {
	r := &result{Metrics: map[string]reading{"op_s": {Value: 1, Unit: "s"}}}
	want := []metricSpec{{Name: "op_s", Unit: "s"}, {Name: "setup_s", Unit: "s"}}
	if err := r.print(io.Discard, want); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Errorf("missing metric not reported: %v", err)
	}
	if err := r.print(io.Discard, want[:1]); err != nil {
		t.Error(err)
	}
}

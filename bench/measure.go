package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// reading is one metric value with its unit and the number of samples
// behind it (0 where the value is a plain count or ratio).
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one run of one workload produces.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostInfo           `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
	// OpSeconds is the wall time of every verified operation of the
	// timed window, in completion order: the raw data behind op_s.
	OpSeconds []float64 `json:"op_seconds"`
	// Notes carry what is worth reading but is not a metric: the first
	// verification failure, the pipeline digest, the trace file path.
	Notes []string `json:"notes,omitempty"`
}

func newResult(c *config) *result {
	return &result{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		Host: describeHost(), Metrics: map[string]reading{},
	}
}

func (r *result) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio over nothing (a smoke run's empty sample), not a reading
	}
	r.Metrics[name] = reading{Value: v, Unit: unit, N: n}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// check counts one attempted verification outside the timed window
// and fails it when err is set.
func (r *result) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts one failed, refused or output-mismatching operation and
// keeps the first few reasons.
func (r *result) fail(err error) {
	r.Failed++
	if r.Failed <= 3 {
		r.notef("FAILED: %v", err)
	}
}

// print writes the human-readable table of everything measured and
// then, as the last line, the one-object summary the driver parses,
// holding exactly the metrics named in want. A metric of want that the
// run did not produce, or produced under another unit, is an error.
func (r *result) print(w io.Writer, want []metricSpec) error {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %t\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	h := r.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]out{}}
	var missing []string
	for _, spec := range want {
		m, ok := r.Metrics[spec.Name]
		if !ok || m.Unit != spec.Unit {
			missing = append(missing, spec.Name)
			continue
		}
		line.Metrics[spec.Name] = out{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
		return err
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics of BENCHMARK.json not produced (or under another unit): %v", missing)
	}
	return nil
}

// opLog is what a timed window of operations leaves behind.
type opLog struct {
	durs       []float64 // seconds of each untraced verified operation
	tracedDurs []float64 // the same for operations run with spans on (traced run only)
	attempted  int
	cpu        float64 // user+sys seconds spent in the window
	allocMB    float64 // MB allocated in the window
}

// timedLoop runs op in a closed loop — the next call starts when the
// previous returns — for about the configured window and at least
// minOps calls. A new operation starts only while half its expected
// length still fits, so the measured window centres on the requested
// one whatever the operation's length. In a traced run every second
// operation gets the tracer; the rest stay untraced so the same run
// yields the tracing overhead.
func timedLoop(c *config, tr *tracer, r *result, op func(i int, tr *tracer) error) opLog {
	var l opLog
	window, minOps := c.window(), c.sizes.minOps
	cpu0, alloc0 := cpuSeconds(), allocBytes()
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minOps && time.Since(start)+last/2 >= window {
			break
		}
		opTr := tr
		if i%2 == 0 {
			opTr = nil
		}
		t0 := time.Now()
		err := op(i, opTr)
		last = time.Since(t0)
		l.attempted++
		switch {
		case err != nil:
			r.fail(fmt.Errorf("op %d: %w", i, err))
		case opTr != nil:
			l.tracedDurs = append(l.tracedDurs, last.Seconds())
		default:
			l.durs = append(l.durs, last.Seconds())
		}
	}
	l.cpu = cpuSeconds() - cpu0
	l.allocMB = float64(allocBytes()-alloc0) / 1e6
	return l
}

// endToEnd fills in the end-to-end metrics every workload reports
// (service_warm then replaces op_s, see typicalSeconds).
func (r *result) endToEnd(setup []float64, l opLog) {
	all := append(append([]float64(nil), l.durs...), l.tracedDurs...)
	r.Attempted += l.attempted
	r.OpSeconds = all
	r.set("setup_s", "s", median(setup), len(setup))
	r.set("op_s", "s", median(all), len(all))
	r.set("cpu_s_per_op", "s", l.cpu/float64(max(l.attempted, 1)), l.attempted)
	r.set("alloc_mb_per_op", "MB", l.allocMB/float64(max(l.attempted, 1)), l.attempted)
}

// overhead is the traced median over the untraced one, minus one.
func (l opLog) overhead() float64 {
	if len(l.durs) == 0 || len(l.tracedDurs) == 0 {
		return 0
	}
	return median(l.tracedDurs)/median(l.durs) - 1
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"janus"
	"janus/internal/artcache"
	"janus/internal/harness"
	"janus/internal/workloads"
)

// goldenPath is the committed suite rendering, produced by the
// harness's own golden test and never by this benchmark: it is the
// independent reference every timed render is compared with.
const goldenPath = "internal/harness/testdata/janus-bench.golden"

// selection picks what one render covers; the zero value is the full
// suite. Smoke runs render table II alone, which is the fixture's
// last block.
type selection struct{ fig, table int }

func (s selection) full() bool { return s.fig == 0 && s.table == 0 }

// checkRender compares rendered bytes with the fixture: equal for the
// full suite, the fixture's tail for the smoke selection.
func checkRender(out string, golden []byte, sel selection) error {
	ok := out == string(golden)
	if !sel.full() {
		ok = out != "" && bytes.HasSuffix(golden, []byte(out))
	}
	if !ok {
		return fmt.Errorf("rendered %d bytes differ from %s (%d bytes)", len(out), goldenPath, len(golden))
	}
	return nil
}

// freshProcessState drops the in-memory memos and the build cache, so
// the next render pays what a newly started janus-bench pays.
func freshProcessState() {
	janus.ResetMemos()
	workloads.ResetBuildCache()
}

// experimentSpans turns harness progress events into one span per
// experiment under parent, and counts benchmark rows.
type experimentSpans struct {
	tr     *tracer
	parent int
	op     int
	mu     sync.Mutex
	open   map[string]int
	rows   int
}

func (e *experimentSpans) onProgress(ev harness.ProgressEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.State {
	case "start":
		e.open[ev.Experiment] = e.tr.begin("harness."+ev.Experiment, e.parent, e.op)
	case "done", "failed":
		e.tr.end(e.open[ev.Experiment])
	case "row":
		e.rows++
	}
}

// render is one verified suite render. With a tracer the render is a
// span and every experiment a child span; rows reports the benchmark
// rows the harness completed.
func render(sel selection, cacheDir string, golden []byte, tr *tracer, op int) (rows int, err error) {
	freshProcessState()
	o := harness.DefaultOptions()
	o.CacheDir = cacheDir
	id := tr.begin("harness.render", -1, op)
	var es *experimentSpans
	if tr != nil {
		es = &experimentSpans{tr: tr, parent: id, op: op, open: map[string]int{}}
		o.OnProgress = es.onProgress
	}
	out, err := harness.RenderAll(o, sel.fig, sel.table)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if es != nil {
		rows = es.rows
	}
	return rows, checkRender(out, golden, sel)
}

// populate renders cold into a fresh cache directory under dir — the
// write side of artcache — and returns the directory.
func populate(sel selection, dir string, golden []byte, tr *tracer) (string, error) {
	cacheDir, err := os.MkdirTemp(dir, "cache-")
	if err != nil {
		return "", err
	}
	if _, err := render(sel, cacheDir, golden, tr, -1); err != nil {
		os.RemoveAll(cacheDir)
		return "", fmt.Errorf("cold render: %w", err)
	}
	return cacheDir, nil
}

// cacheDelta runs f and returns how the shared cache counters of dir
// moved (the handle is the one the harness itself opens).
func cacheDelta(dir string, f func() error) (artcache.Stats, error) {
	c, err := artcache.OpenShared(dir)
	if err != nil {
		return artcache.Stats{}, err
	}
	before := c.Stats()
	err = f()
	after := c.Stats()
	return artcache.Stats{
		Hits:       after.Hits - before.Hits,
		Misses:     after.Misses - before.Misses,
		Evictions:  after.Evictions - before.Evictions,
		BadEntries: after.BadEntries - before.BadEntries,
	}, err
}

// warmRender is a render that must be a perfect replay from cacheDir.
func warmRender(sel selection, cacheDir string, golden []byte, tr *tracer, op int) (artcache.Stats, int, error) {
	var rows int
	d, err := cacheDelta(cacheDir, func() (err error) {
		rows, err = render(sel, cacheDir, golden, tr, op)
		return err
	})
	if err == nil && (d.Misses != 0 || d.BadEntries != 0) {
		err = fmt.Errorf("warm render was not a replay: %s", d)
	}
	return d, rows, err
}

// runSuite is the suite_off and suite_warm workloads: closed-loop
// full-suite renders in a process made to look fresh before each one,
// without the durable cache or replaying from a warm one.
func runSuite(c *config, r *result, warm bool) error {
	golden, err := os.ReadFile(filepath.Join(c.root, goldenPath))
	if err != nil {
		return err
	}
	var tr *tracer
	if c.trace {
		tr = newTracer()
		defer c.writeTrace(tr, r)
	}
	sz := c.sizes

	var setup []float64
	cacheDir := ""
	for i := 0; i < sz.setupReps; i++ {
		t := startTimer()
		if warm {
			dir, err := populate(sz.sel, c.tmp, golden, nil)
			if err != nil {
				return err
			}
			if cacheDir != "" {
				os.RemoveAll(cacheDir)
			}
			cacheDir = dir
		} else if _, err := render(sz.sel, "", golden, nil, -1); err != nil {
			return fmt.Errorf("warm-up render: %w", err)
		}
		setup = append(setup, t.seconds())
	}
	if warm {
		// Lazy first-use costs of the read path are not what the warm
		// window is about.
		if _, _, err := warmRender(sz.sel, cacheDir, golden, nil, -1); err != nil {
			return fmt.Errorf("warm-up render: %w", err)
		}
	}

	in := probeInputs{golden: golden}
	log := timedLoop(c, tr, r, func(i int, tr *tracer) (err error) {
		var rows int
		if warm {
			_, rows, err = warmRender(sz.sel, cacheDir, golden, tr, i)
		} else {
			rows, err = render(sz.sel, "", golden, tr, i)
		}
		if tr != nil {
			in.rows = rows
		}
		return err
	})
	r.endToEnd(setup, log)
	if !c.trace {
		return nil
	}
	r.set("trace.overhead_share", "share", log.overhead(), len(log.tracedDurs))
	if warm {
		in.cacheDir, in.coldRenders = cacheDir, setup
	}
	return layerProbes(c, r, tr, in)
}

// experimentNames lists the suite's artefacts in print order; the
// service mix draws from all but the static table II.
var experimentNames = strings.Fields("fig6 fig7 fig8 fig9 fig10 fig11 fig12 tab1 tab2")

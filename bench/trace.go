package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded from outside: the
// benchmark wraps the layer's public function, the program itself is
// not instrumented. Parent is the index of the span that caused this
// one (-1 for a root); Op groups the spans of one operation.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced run shares code with the
// traced one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the
// server-side elapsed time of a request), ending at endNS.
func (t *tracer) add(name string, parent, op int, endNS, durNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: endNS - durNS, End: endNS, Parent: parent, Op: op})
	t.mu.Unlock()
}

// time runs f inside a span.
func (t *tracer) time(name string, parent, op int, f func() error) error {
	id := t.begin(name, parent, op)
	err := f()
	t.end(id)
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the length in seconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// selfSeconds is each span's duration minus the part of its interval
// that its direct children cover (children may overlap each other, so
// the covered part is the union of their intervals, clipped to the
// parent).
func selfSeconds(spans []span) []float64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		k := kids[i]
		sort.Slice(k, func(a, b int) bool { return k[a].lo < k[b].lo })
		var covered, edge int64 = 0, s.Start
		for _, c := range k {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Host     hostInfo           `json:"host"`
	Spans    []span             `json:"spans"`
	SelfS    map[string]float64 `json:"self_seconds_by_name"`
}

// write stores the spans with self time summed per span name.
func (t *tracer) write(path, workload string, seed uint64) error {
	spans := t.snapshot()
	byName := map[string]float64{}
	for i, s := range selfSeconds(spans) {
		byName[spans[i].Name] += s
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Host: describeHost(), Spans: spans, SelfS: byName})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

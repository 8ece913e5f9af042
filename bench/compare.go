package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// exactMetrics are the per-layer counts that are simulated state or
// deterministic structure: they must repeat bit for bit across runs,
// engines and commits of any change that only targets host time, so
// -compare holds them to equality.
var exactMetrics = []string{
	"analyzer.loops", "analyzer.selected_loops", "rules.schedule_bytes",
	"dbm.virtual_cycles", "dbm.par_regions", "dbm.hostpar_regions", "dbm.steal_regions",
	"dbm.trans_blocks", "dbm.checks_run", "dbm.checks_failed", "dbm.tx_started",
	"dbm.tx_abort_share", "dbm.seq_fallbacks", "dbm.par_recoveries",
	"harness.rows", "artcache.hits_per_render", "artcache.misses_per_render",
	"artcache.bad_entries", "artcache.entries",
}

func readRecords(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series holds each metric's values over the runs of one group.
type series map[string]map[string][]float64 // group -> metric -> values

// collect groups the untraced runs by workload, and the traced runs by
// workload and seed: timings compare across seeds, exact counts only
// between runs that had the same inputs.
func collect(recs []result, traced bool) series {
	s := series{}
	for _, r := range recs {
		if r.Trace != traced {
			continue
		}
		group := r.Workload
		if traced {
			group = fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		}
		if s[group] == nil {
			s[group] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[group][name] = append(s[group][name], m.Value)
		}
	}
	return s
}

// verdict applies one end-to-end metric's direction and bound to two
// sets of values: "worse" when b's median is worse than a's by more
// than the bound, "unresolved" when either set's own quartile spread
// exceeds the bound (unless every b reads better than every a), "ok"
// otherwise.
func verdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+m.Bound)
	allBetter := slices.Min(a) > slices.Max(b)
	if m.Better == "higher" {
		worse = mb < ma*(1-m.Bound)
		allBetter = slices.Max(a) < slices.Min(b)
	}
	switch {
	case allBetter:
		return "ok"
	case quartileSpread(a) > m.Bound || quartileSpread(b) > m.Bound:
		return "unresolved"
	case worse:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (metric, workload): end-to-end
// metrics under their bound, exact counts under equality. It reports
// whether any row came out worse.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	if len(ra) == 0 || len(rb) == 0 {
		return false, fmt.Errorf("nothing to compare: %d and %d runs", len(ra), len(rb))
	}
	sameHost := true
	for _, r := range append(slices.Clone(ra), rb...) {
		if r.Host.NProc != ra[0].Host.NProc || r.Host.GOMAXPROCS != ra[0].Host.GOMAXPROCS {
			sameHost = false
		}
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-24s %-10s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "unit", "median A", "median B", "B/A", "iqr A", "iqr B", "verdict")
	a, b := collect(ra, false), collect(rb, false)
	for _, wl := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m, va, vb)
			if !sameHost {
				v = "unresolved"
			}
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-24s %-10s %14.6g %14.6g %8.4f %8.4f %8.4f  %s (n=%d,%d bound %g)\n",
				wl, m.Name, m.Unit, median(va), median(vb), median(vb)/median(va),
				quartileSpread(va), quartileSpread(vb), v, len(va), len(vb), m.Bound)
		}
	}
	a, b = collect(ra, true), collect(rb, true)
	groups := make([]string, 0, len(a))
	for g := range a {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, wl := range groups {
		for _, name := range exactMetrics {
			va, vb := a[wl][name], b[wl][name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := "ok"
			for _, x := range append(slices.Clone(va), vb...) {
				if x != va[0] {
					v = "worse"
				}
			}
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-14s %-24s %-10s %14.6g %14.6g %8s %8s %8s  %s (exact, n=%d,%d)\n",
				wl, name, "exact", va[0], vb[0], "", "", "", v, len(va), len(vb))
		}
	}
	if !sameHost {
		fmt.Fprintln(w, "hosts differ in nproc or GOMAXPROCS: host time does not compare, every timed row is unresolved")
	}
	return anyWorse, nil
}

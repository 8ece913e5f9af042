package janus

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateResiduals = flag.Bool("update", false, "rewrite testdata/paper-residuals.golden from the janus-bench golden fixture")

const (
	benchGoldenPath     = "internal/harness/testdata/janus-bench.golden"
	residualsGoldenPath = "testdata/paper-residuals.golden"
)

// paperCell is one figure or table cell that has a value from the
// paper beside ours.
type paperCell struct {
	name        string
	ours, paper float64
}

// residual is how far ours is from the paper, symmetric in the ratio:
// twice and half the paper's value are the same distance.
func (c paperCell) residual() float64 { return math.Abs(math.Log(c.ours / c.paper)) }

// figureSections splits janus-bench output into its blocks, keyed by
// the block's title up to the colon ("Figure 7", "Table I").
func figureSections(out string) map[string][]string {
	sections := map[string][]string{}
	for _, block := range strings.Split(out, "\n\n") {
		lines := strings.Split(strings.Trim(block, "\n"), "\n")
		if title, _, ok := strings.Cut(lines[0], ":"); ok {
			sections[title] = lines[1:]
		}
	}
	return sections
}

var (
	fig10Geomean = regexp.MustCompile(`^geomean\s+([0-9.]+)%\s+\(paper: ([0-9.]+)%\)$`)
	fig11Geomean = regexp.MustCompile(`^geomean((?:\s+[0-9.]+){4})\s+\(paper: ([0-9.]+) / ([0-9.]+) / ([0-9.]+) / ([0-9.]+)\)$`)
)

// paperCells reads every cell with a paper value from janus-bench
// output: figure 7's Janus column per row and its geomean, figure 10's
// geomean, figure 11's four geomeans and Table I per row.
func paperCells(out string) ([]paperCell, error) {
	sections := figureSections(out)
	var cells []paperCell
	var bad error
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil && bad == nil {
			bad = err
		}
		return v
	}
	// Figure 7: benchmark DBM static +prof Janus paper.
	fig7 := sections["Figure 7"]
	for _, line := range fig7[min(1, len(fig7)):] {
		f := strings.Fields(line)
		if len(f) != 6 {
			return nil, fmt.Errorf("figure 7 row %q: want 6 fields", line)
		}
		cells = append(cells, paperCell{"fig7/" + f[0], num(f[4]), num(f[5])})
	}
	// Figure 10: only the geomean has a paper value.
	for _, line := range sections["Figure 10"] {
		if m := fig10Geomean.FindStringSubmatch(line); m != nil {
			cells = append(cells, paperCell{"fig10/geomean", num(m[1]), num(m[2])})
		}
	}
	// Figure 11: the four geomeans, named by the header's columns.
	fig11 := sections["Figure 11"]
	for _, line := range fig11 {
		m := fig11Geomean.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cols := strings.Fields(fig11[0])
		if len(cols) != 5 {
			return nil, fmt.Errorf("figure 11 header %q: want 5 columns", fig11[0])
		}
		ours := strings.Fields(m[1])
		for i, col := range cols[1:] {
			cells = append(cells, paperCell{"fig11/geomean/" + col, num(ours[i]), num(m[2+i])})
		}
	}
	// Table I: benchmark ranges loops paper.
	tab1 := sections["Table I"]
	for _, line := range tab1[min(1, len(tab1)):] {
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("table I row %q: want 4 fields", line)
		}
		cells = append(cells, paperCell{"tab1/" + f[0], num(f[1]), num(f[3])})
	}
	if bad != nil {
		return nil, bad
	}
	for _, c := range cells {
		if c.ours <= 0 || c.paper <= 0 {
			return nil, fmt.Errorf("%s: ours %v, paper %v: a residual needs two positive values", c.name, c.ours, c.paper)
		}
	}
	return cells, nil
}

// TestPaperResiduals pins how far every figure cell that has a paper
// value is from it, as |ln(ours/paper)|, read from the janus-bench golden
// fixture, so it costs no render. A change that moves a figure must
// regenerate testdata/paper-residuals.golden with -update, and its diff
// then shows how far each cell moved from the paper.
func TestPaperResiduals(t *testing.T) {
	out, err := os.ReadFile(benchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := paperCells(string(out))
	if err != nil {
		t.Fatal(err)
	}
	// 9 figure-7 rows and their geomean, figure 10's geomean, figure
	// 11's four geomeans and 4 Table I rows.
	if len(cells) != 19 {
		t.Fatalf("read %d cells with a paper value from %s, want 19", len(cells), benchGoldenPath)
	}
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%-28s ours %6.2f  paper %6.2f  residual %.4f\n", c.name, c.ours, c.paper, c.residual())
	}
	got := b.String()
	if *updateResiduals {
		if err := os.WriteFile(residualsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(residualsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s\n(regenerate with -update only with cause)", residualsGoldenPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d (regenerate with -update only with cause)", residualsGoldenPath, len(gl), len(wl))
	}
}

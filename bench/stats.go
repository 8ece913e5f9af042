package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the p-th percentile (0..100) of v by linear
// interpolation between closest ranks; 0 for an empty sample, so a
// layer that saw no work in a smoke run still prints a number.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return percentile(v, 50) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// tailBeyond is how many samples the choosing-metrics guide wants
// beyond a reported percentile before the percentile is believed.
const tailBeyond = 10

// tailPercentile picks the percentile to report beside the median:
// the highest of the candidates (ascending) that still has at least
// tailBeyond samples above it, or the lowest candidate when the sample
// is too small for any — the count printed beside it then says how far
// to trust it.
func tailPercentile(n int, candidates ...float64) float64 {
	best := candidates[0]
	for _, p := range candidates[1:] {
		if float64(n)*(100-p)/100 >= tailBeyond {
			best = p
		}
	}
	return best
}

// quartileSpread is the run-to-run spread the acceptance check uses:
// (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(v, n=4) (the exclusive method), so -compare
// agrees with the driver. Fewer than two values have no spread.
func quartileSpread(v []float64) float64 {
	n := len(v)
	m := median(v)
	if n < 2 || m == 0 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return math.Abs((q(3) - q(1)) / m)
}

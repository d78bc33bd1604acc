package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so spreads printed here match the ones
// computed over a set of runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// tail is a high percentile of a sample together with the evidence for it.
type tail struct {
	// Pct is the percentile, e.g. 99 or 99.9.
	Pct float64
	// Value is the nearest-rank sample at Pct.
	Value float64
	// Beyond counts the samples ranked above Value.
	Beyond int
}

// tailLadder lists the percentiles highestTail considers, in parts per
// 100000 so the rank arithmetic stays in integers.
var tailLadder = []int{50000, 90000, 99000, 99900, 99990, 99999}

// minBeyond is how many samples must rank above a percentile before the
// sample is taken to support it.
const minBeyond = 10

// highestTail returns the highest percentile of xs on the ladder 50, 90,
// 99, 99.9, ... that has at least minBeyond samples ranked beyond it. A
// sample too small to support even the median reports the median with
// its (short) Beyond count, so callers can see the evidence is thin.
func highestTail(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	n := len(s)
	best := tail{}
	for i, pp := range tailLadder {
		k := (pp*n + 99999) / 100000 // nearest rank, 1-based
		if k < 1 {
			k = 1
		}
		t := tail{Pct: float64(pp) / 1000, Value: s[k-1], Beyond: n - k}
		if i > 0 && t.Beyond < minBeyond {
			break
		}
		best = t
	}
	return best
}

// finite maps NaN and ±Inf to 0, since the JSON result line cannot carry
// them and a ratio over an empty base has no value to report.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7.5}, [3]float64{7.5, 7.5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	in := []float64{3, 1, 2}
	quartiles(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("quartiles reordered its input: %v", in)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the sort is exercised
	}
	return xs
}

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want tail
	}{
		{0, tail{}},
		// Too few samples for any percentile: the median, flagged by
		// its short Beyond count.
		{19, tail{Pct: 50, Value: 10, Beyond: 9}},
		{20, tail{Pct: 50, Value: 10, Beyond: 10}},
		{99, tail{Pct: 50, Value: 50, Beyond: 49}},
		{100, tail{Pct: 90, Value: 90, Beyond: 10}},
		{1000, tail{Pct: 99, Value: 990, Beyond: 10}},
		{9999, tail{Pct: 99, Value: 9900, Beyond: 99}},
		{10000, tail{Pct: 99.9, Value: 9990, Beyond: 10}},
	} {
		if got := highestTail(seq(c.n)); got != c.want {
			t.Errorf("highestTail(1..%d) = %+v, want %+v", c.n, got, c.want)
		}
	}
}

func TestFinite(t *testing.T) {
	if finite(math.NaN()) != 0 || finite(math.Inf(1)) != 0 || finite(2.5) != 2.5 {
		t.Fatal("finite must zero NaN and Inf and keep finite values")
	}
}

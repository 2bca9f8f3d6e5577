package main

import (
	"math"
	"math/rand"
	"testing"
)

// On the integers 1..n the nearest-rank q-quantile is ceil(q*n).
func TestHistQuantileIntegers(t *testing.T) {
	for _, n := range []int{1, 4, 100, 1000, 2047} {
		h := newHist()
		for _, v := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			h.Record(int64(v + 1))
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			want := math.Max(1, math.Ceil(q*float64(n)))
			if got := h.Quantile(q); got != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
}

// Above the exact range a quantile is within the bucket's relative width.
func TestHistQuantileLargeValues(t *testing.T) {
	const n = 100000
	h := newHist()
	for v := 1; v <= n; v++ {
		h.Record(int64(v) * 1000) // 1 µs .. 100 ms in ns
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		want := math.Ceil(q*n) * 1000
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 1.0/(subCount/2) {
			t.Errorf("q=%v: got %v, want %v within %.3f%%", q, got, want, 100.0/(subCount/2))
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	h := newHist()
	for i := 1; i < len(h.counts); i++ {
		if histLow(i) <= histLow(i-1) {
			t.Fatalf("bucket %d starts at %d, not above bucket %d at %d", i, histLow(i), i-1, histLow(i-1))
		}
		if idx := histIndex(histLow(i)); idx != i {
			t.Fatalf("value %d maps to bucket %d, want %d", histLow(i), idx, i)
		}
		if idx := histIndex(histLow(i) - 1); idx != i-1 {
			t.Fatalf("value %d maps to bucket %d, want %d", histLow(i)-1, idx, i-1)
		}
	}
}

func TestQuantileIntegers(t *testing.T) {
	for _, n := range []int{1, 3, 10, 101} {
		xs := make([]float64, n)
		for i, v := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			xs[i] = float64(v + 1)
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 1} {
			want := math.Max(1, math.Ceil(q*float64(n)))
			if got := quantile(xs, q); got != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got, want)
			}
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the functions must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// The tail is the highest ladder percentile with at least ten samples
// beyond it; with fewer than twenty samples there is none.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{1, 0, false},
		{19, 0, false},  // p75 has ceil(14.25)=15, 4 beyond
		{40, 75, true},  // p75: 30, 10 beyond; p90: 36, 4 beyond
		{99, 75, true},  // p90: rank 90, 9 beyond
		{100, 90, true}, // p90: 10 beyond; p95: 5
		{200, 95, true}, // p95: 10 beyond
		{999, 95, true}, // p99: rank 990, 9 beyond
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, v, ok := tail(seq(tc.n))
		if ok != tc.ok || p != tc.wantP {
			t.Errorf("tail(n=%d) = p%v ok=%v, want p%v ok=%v", tc.n, p, ok, tc.wantP, tc.ok)
			continue
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("tail(n=%d) = p%v at %v has only %d samples beyond", tc.n, p, v, beyond)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	var s sample
	for i := 1; i <= 100; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	got := summarize(s)
	want := timing{N: 100, P50: 50.5, TailP: 90, Tail: 90}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
	if got := summarize(s[:5]); got.TailP != 0 || got.N != 5 {
		t.Errorf("a 5-sample timing reports a tail: %+v", got)
	}
}

// Every ratio is given against an explicit base; an empty base yields
// 0 and ok=false, never NaN or Inf.
func TestRatios(t *testing.T) {
	if r, ok := ratio(100, 326); !ok || math.Abs(r-100.0/326) > 1e-12 {
		t.Errorf("memo hit ratio 100/326 = %v, %v", r, ok)
	}
	if r, ok := ratio(5, 0); ok || r != 0 {
		t.Errorf("ratio over a zero base = %v, %v; want 0, false", r, ok)
	}
	if r, ok := ratio(5, -1); ok || r != 0 {
		t.Errorf("ratio over a negative base = %v, %v; want 0, false", r, ok)
	}
	for _, tc := range []struct {
		attempted, failed int
		want              float64
	}{{10, 0, 1}, {10, 1, 0.9}, {4, 4, 0}, {0, 0, 0}} {
		if got := okRatio(tc.attempted, tc.failed); got != tc.want {
			t.Errorf("okRatio(%d attempted, %d failed) = %v, want %v", tc.attempted, tc.failed, got, tc.want)
		}
	}
	if got := perSecond(30, 20*time.Second); got != 1.5 {
		t.Errorf("perSecond(30, 20s) = %v, want 1.5", got)
	}
	if got := perSecond(30, 0); got != 0 {
		t.Errorf("perSecond over no time = %v, want 0", got)
	}
}

func TestWeightedMedians(t *testing.T) {
	a := sample{1, 2, 3}    // median 2
	b := sample{10, 30, 20} // median 20
	c := sample{100, 200}   // median 150
	if got, ok := sumOfMedians([]sample{a, b, c}); !ok || got != 172 {
		t.Errorf("sumOfMedians = %v, %v; want 172", got, ok)
	}
	// Weighted mean with the weights as its base: (3*2 + 1*20) / 4.
	if got, ok := weightedMedians([]sample{a, b}, []float64{3, 1}); !ok || got != 6.5 {
		t.Errorf("weightedMedians = %v, %v; want 6.5", got, ok)
	}
	if _, ok := weightedMedians([]sample{a, nil}, []float64{1, 1}); ok {
		t.Error("an empty sample gave a value")
	}
	if _, ok := weightedMedians([]sample{a}, []float64{0}); ok {
		t.Error("zero total weight gave a value")
	}
}

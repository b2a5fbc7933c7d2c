package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a timing may report beside its
// median, highest first. A timing reports the highest one that still
// has at least minBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean more than one or two outliers.
const minBeyond = 10

// sample is a set of timings in milliseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle value, or the mean of the two middle values for
// an even count (as Python's statistics.median); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sample(xs).sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with
// at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sample(xs).sorted()
	return s[nearestRank(len(s), p)-1]
}

func nearestRank(n int, p float64) int {
	// The tolerance keeps binary rounding (99.9/100*10000 is
	// 9990.000000000002) from pushing an exact rank one up.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail picks the highest percentile of tailLadder that has at least
// minBeyond samples strictly beyond its nearest rank. ok is false when
// there are too few samples for any of them.
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= minBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// sumOfMedians adds the medians of several samples: the time of one
// round through a workload's corpora, each corpus at its own median.
// ok is false when any sample is empty.
func sumOfMedians(parts []sample) (float64, bool) {
	return weightedMedians(parts, nil)
}

// weightedMedians is the weighted mean of the samples' medians (their
// plain sum when weights is nil). Mixing kinds of operation with very
// different costs into one median would put it wherever the kinds'
// latency ranges meet; per-kind medians stay put. ok is false when any
// sample is empty or the weights sum to zero.
func weightedMedians(parts []sample, weights []float64) (float64, bool) {
	var sum, wsum float64
	for i, p := range parts {
		if len(p) == 0 {
			return 0, false
		}
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		sum += w * median(p)
		wsum += w
	}
	if weights == nil {
		return sum, len(parts) > 0
	}
	return ratio(sum, wsum)
}

// ratio is num/base; ok is false (and the value 0) when base is not
// positive, so an empty base never yields NaN or Inf in a result.
func ratio(num, base float64) (float64, bool) {
	if base <= 0 {
		return 0, false
	}
	return num / base, true
}

// okRatio is the share of attempted operations that succeeded:
// 1 − failed/attempted, with attempted as the base.
func okRatio(attempted, failed int) float64 {
	r, _ := ratio(float64(attempted-failed), float64(attempted))
	return r
}

// perSecond is count divided by the elapsed wall time.
func perSecond(count int, elapsed time.Duration) float64 {
	r, _ := ratio(float64(count), elapsed.Seconds())
	return r
}

package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples a percentile must have beyond it
// before it is reported: a p90 over 40 samples rests on four values and
// moves with every one of them.
const minTail = 10

// percentile returns the exact q-quantile (0 < q < 1) of the raw
// samples, interpolating linearly between the two closest ranks (the
// "inclusive" rule Python's statistics.quantiles uses). ok is false
// when fewer than minTail samples rank above it.
func percentile(samples []float64, q float64) (v float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if n-1-lo < minTail {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo]), true
}

// median returns the middle value of the samples (the mean of the two
// middle ones for an even count); 0 for none. Unlike percentile it has
// no tail requirement: it summarizes repetitions of one measurement,
// not a latency distribution.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive samples; 0 for none.
func geomean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(samples)))
}

// mean returns the arithmetic mean; 0 for none.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

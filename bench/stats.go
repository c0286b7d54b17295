package main

// The statistics behind the metric definitions are the benchmark's own
// (not internal/obs's quantile helpers), so that no change to the program
// can move what a metric means.

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

// median returns the middle value of v (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mean returns the arithmetic mean of v, 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of an
// ascending slice: the smallest value with at least q% of the samples at
// or below it.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(q / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it, so the reported tail is not one or two outliers.
func tailPercentile(n int) float64 {
	for _, q := range []float64{99.9, 99, 95, 90, 75} {
		if float64(n)*(100-q)/100 >= 10 {
			return q
		}
	}
	return 50
}

// quartiles returns the first and third quartile of v the way Python's
// statistics.quantiles(v, n=4) does (exclusive method) — the same rule the
// benchmark's gate applies to run-to-run spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// sliceRates cuts a window's completions, in completion order, into n
// consecutive slices of equal job count and returns each slice's rate in
// units per second: the slice's units over the time from the previous
// slice's last completion (the window start for the first) to its own.
// Measuring between completions keeps a slice's rate free of the
// quantisation a fixed time grid imposes on jobs that take a tenth of a
// slice. Fewer than n completions yield one slice per completion.
func sliceRates(startNs int64, endNs []int64, unitsPerJob, n int) []float64 {
	if len(endNs) < n {
		n = len(endNs)
	}
	rates := make([]float64, 0, n)
	prev := startNs
	for i := 0; i < n; i++ {
		lo, hi := i*len(endNs)/n, (i+1)*len(endNs)/n
		end := endNs[hi-1]
		if end > prev {
			rates = append(rates, float64((hi-lo)*unitsPerJob)/(float64(end-prev)/1e9))
		}
		prev = end
	}
	return rates
}

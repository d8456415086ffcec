package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds (q in (0, 1]).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// perWindow splits the completion times done (from the run's start, in
// order) into consecutive windows of at least win and returns each full
// window's completions per second.
func perWindow(done []time.Duration, win time.Duration) []float64 {
	var rates []float64
	var from time.Duration
	n := 0
	for _, t := range done {
		n++
		if t-from >= win {
			rates = append(rates, float64(n)/(t-from).Seconds())
			from, n = t, 0
		}
	}
	return rates
}

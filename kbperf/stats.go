package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, in
// milliseconds. It sorts a copy.
func percentile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

// beyond is how many samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median of a float sample (sorts a copy).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range xs {
		t += x
	}
	return t
}

// topShare is the share of total time spent in the slowest 5% of xs.
func topShare(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	n := (len(s) + 19) / 20
	return float64(sum(s[:n])) / float64(sum(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (no events to take a share of).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean accumulates a running average.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(x float64)  { m.sum += x; m.n++ }
func (m *mean) value() float64 { return ratio(m.sum, float64(m.n)) }

package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations or sizes, kept exactly so percentiles are
// not binned.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	*s = append(*s, float64(d)/float64(unit))
}

// pct returns the p-th percentile (0 < p <= 100) by the nearest-rank
// rule, or 0 for an empty set.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	rank := int(math.Ceil(p / 100 * float64(len(c))))
	if rank < 1 {
		rank = 1
	}
	return c[rank-1]
}

func (s samples) median() float64 { return s.pct(50) }

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// slope is the least-squares slope of ys over xs (0 when undefined).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// ratio divides, reading 0/0 as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"math"
	"sort"
)

// summary is one metric's measurements within a run: the reported value is
// the median, printed with its quartiles and the sample count.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(unit string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, N: len(values), Median: med, Q1: q1, Q3: q3}
}

// spread is the distance between the quartiles as a share of the median,
// the run-to-run measure the benchmark's bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// quantile interpolates at position p (1-based, fractional) of the sorted
// values, clamped to the ends.
func quantile(s []float64, p float64) float64 {
	switch {
	case len(s) == 0:
		return 0
	case p <= 1:
		return s[0]
	case p >= float64(len(s)):
		return s[len(s)-1]
	}
	lo := int(p)
	return s[lo-1] + (p-float64(lo))*(s[lo]-s[lo-1])
}

// quartiles uses the same rule as Python's statistics.quantiles(v, n=4)
// (exclusive method), so spreads computed here match the ones the driver
// computes from ten runs.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := sorted(values)
	n := float64(len(s) + 1)
	return quantile(s, n/4), quantile(s, n/2), quantile(s, 3*n/4)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(values []float64, p float64) float64 {
	s := sorted(values)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

package main

import (
	"math"
	"sort"
)

// Sample is how every metric is reported: the median of the values measured
// inside one run, their quartiles and how many there were.
type Sample struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(unit string, vals []float64) Sample {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return Sample{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// single wraps a value measured once per run.
func single(unit string, v float64) Sample {
	return Sample{Unit: unit, Median: v, Q1: v, Q3: v, N: 1}
}

// spread is the inter-quartile distance as a share of the median.
func (s Sample) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

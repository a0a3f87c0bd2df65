package main

import "sort"

// summary is one metric's distribution over a run's reps.
type summary struct {
	Samples []float64 `json:"samples"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
}

// summarize computes the median and quartiles of xs. The quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here matches one computed from the raw samples there.
func summarize(xs []float64) summary {
	s := summary{Samples: xs, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	if len(sorted) == 1 {
		s.Q1, s.Q3 = sorted[0], sorted[0]
		return s
	}
	q := quartiles(sorted)
	s.Q1, s.Q3 = q[0], q[2]
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// median of an already sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

// quartiles ports statistics.quantiles(data, n=4, method="exclusive") for
// a sorted slice of at least two values.
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}

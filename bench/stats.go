package main

import "sort"

// summary is a timing metric as the benchmark reports it: the median with
// the quartiles and the sample count that say how far to trust it.
type summary struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the function the acceptance check applies to this benchmark's output.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{Q1: s[0], Median: s[0], Q3: s[0], N: 1}
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Q1: cut(1), Median: cut(2), Q3: cut(3), N: n}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// iqrFrac is the interquartile range as a share of the median: the spread
// figure the benchmark's bounds are compared against.
func (s summary) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// relDiff is (b-a)/a, the relative change from a to b.
func relDiff(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	return (b - a) / a
}

// normalize scores one measurement against the mean of the reference-kernel
// timings taken immediately before and after it, which cancels the host's
// minutes-long slow phases (see README.md, "Why the timings are ratios").
func normalize(v, refBefore, refAfter float64) float64 {
	return v / ((refBefore + refAfter) / 2)
}

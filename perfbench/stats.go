package main

import (
	"math"
	"regexp"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two closest ranks (the "R-7" definition, the
// default of NumPy and spreadsheets). xs need not be sorted; it is not
// modified. An empty xs yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := (float64(len(s)) - 1) * p / 100
	lo := math.Floor(h)
	hi := math.Ceil(h)
	if lo == hi {
		return s[int(lo)]
	}
	return s[int(lo)] + (h-lo)*(s[int(hi)]-s[int(lo)])
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the percentile reported as the tail of a run with n
// ops: p90 when at least ten ops lie beyond it (n ≥ 100), otherwise the
// highest percentile that still has ten ops beyond it, 100·(n−10)/n. It
// never drops below the median: a run of fewer than 20 ops reports p50 as
// its tail, because no higher percentile has ten samples beyond it.
func tailPercentile(n int) float64 {
	if n <= 0 {
		return 50
	}
	p := 100 * float64(n-10) / float64(n)
	return math.Max(50, math.Min(90, p))
}

// quartiles returns the three cut points that divide xs into four groups,
// computed exactly like Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method: position i·(len+1)/4, its integer part
// clamped to [1, len−1], interpolated (or extrapolated) between the two
// neighbouring order statistics. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile of xs as a
// share of their median: the run-to-run noise measure the benchmark's
// bounds are set against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nameRE is the shape of every workload and metric name: a letter or digit,
// then up to 63 letters, digits, '_', '.' or '-'.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitRE is the shape of a metric unit (ms, s, 1/s, count, %, …).
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics. Fewer than two values
// return that value (or 0) three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile of an ascending slice.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, provided at least minBeyond samples lie beyond it; a
// tail read off fewer samples is the position of a handful of outliers, not
// a percentile. When the rule fails it steps down through 99, 95, 90, 75 to
// the highest percentile that passes and returns that one's rank instead.
// The percentile actually used and the sample count beyond it are returned.
func tailPercentile(xs []float64, p float64, minBeyond int) (v, used float64, beyond int) {
	s := sorted(xs)
	if len(s) == 0 {
		return 0, 0, 0
	}
	for _, c := range []float64{p, 99, 95, 90, 75, 50} {
		if c > p {
			continue
		}
		rank := int(math.Ceil(c / 100 * float64(len(s))))
		if rank < 1 {
			rank = 1
		}
		beyond = len(s) - rank
		if beyond >= minBeyond || c == 50 {
			return s[rank-1], c, beyond
		}
	}
	return s[len(s)-1], 100, 0
}

// spread is the distance between the quartiles as a share of the median, the
// run-to-run noise measure the acceptance checks use.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

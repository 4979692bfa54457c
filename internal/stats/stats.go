// Package stats provides the descriptive statistics the benchmark harness
// reports: means, medians, standard deviations, percentiles, and the
// outlier-pruning step the paper applies to noisy samples (§4.1: "we have
// pruned extreme noise samples from the dataset").
package stats

import (
	"fmt"
	"math"
	"sort"
)

// SummaryConfidence is the confidence level of the interval Summarize
// attaches to every Summary.
const SummaryConfidence = 0.95

// Summary holds descriptive statistics over a sample set, including a
// Student-t confidence interval on the mean at SummaryConfidence.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	Stddev float64
	P05    float64
	P95    float64
	// CILo and CIHi bound the two-sided confidence interval on the mean;
	// degenerate sample sets (n < 2 or zero variance) collapse to the mean.
	CILo float64
	CIHi float64
	// Trimean is Tukey's trimean, the robust companion location estimate.
	Trimean float64
}

// Summarize computes a Summary over xs. An empty sample set — reachable when
// outlier pruning leaves nothing behind — yields the zero
// Summary (N == 0) rather than a panic.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		Median: Percentile(sorted, 50),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Stddev: Stddev(sorted),
		P05:    Percentile(sorted, 5),
		P95:    Percentile(sorted, 95),
	}
	s.CILo, s.CIHi = MeanCI(sorted, SummaryConfidence)
	s.Trimean = (Percentile(sorted, 25) + 2*s.Median + Percentile(sorted, 75)) / 4
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g median=%.4g sd=%.3g min=%.4g max=%.4g",
		s.N, s.Mean, s.Median, s.Stddev, s.Min, s.Max)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 for n < 2).
func Stddev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs must be sorted ascending; the
// percentile of an empty set is defined as 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Median returns the middle value of xs (interpolated for even n, 0 for
// empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentile(sorted, 50)
}

// MAD returns the median absolute deviation of xs scaled by 1.4826, the
// consistency constant that makes it estimate the standard deviation for
// normal data (0 for empty input).
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return 1.4826 * Median(devs)
}

// PruneOutliers drops samples more than k robust standard deviations from a
// robust center, returning the retained samples. This mirrors the paper's
// removal of extreme noise samples "that do not often occur in practice".
//
// The center is the median and the scale is the MAD (scaled to estimate sd),
// so the outliers being pruned cannot inflate the cut that is supposed to
// remove them — with a mean/sd cut, a single large spike drags the mean
// toward itself and widens sd enough to escape the k·sd fence. When the MAD
// is 0 (at least half the samples identical) the plain standard deviation is
// the fallback scale. With fewer than three samples, k <= 0, or zero scale,
// the input is returned unchanged.
func PruneOutliers(xs []float64, k float64) []float64 {
	if len(xs) < 3 || k <= 0 {
		return xs
	}
	center := Median(xs)
	scale := MAD(xs)
	if scale == 0 {
		scale = Stddev(xs)
	}
	if scale == 0 {
		return xs
	}
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-center) <= k*scale {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		return xs // degenerate; keep everything rather than nothing
	}
	return kept
}

// TrimmedMean returns the mean after discarding the lowest and highest
// fraction of the sorted samples. Like every function in this package it
// never panics: frac <= 0 is the plain mean, frac >= 0.5 (everything
// trimmed) degrades to the median, and empty input yields 0.
func TrimmedMean(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if frac <= 0 {
		return Mean(xs)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if frac >= 0.5 {
		return Percentile(sorted, 50)
	}
	cut := int(float64(len(sorted)) * frac)
	trimmed := sorted[cut : len(sorted)-cut]
	if len(trimmed) == 0 {
		return Percentile(sorted, 50)
	}
	return Mean(trimmed)
}

// GeoMean returns the geometric mean of the positive samples in xs.
// Non-positive samples have no logarithm and are skipped rather than
// panicking; if nothing positive remains (or xs is empty) the result is 0,
// matching the empty-input contract of Mean and Summarize.
func GeoMean(xs []float64) float64 {
	var sumLog float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sumLog += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sumLog / float64(n))
}

// MinMax returns the smallest and largest values in xs. Empty input yields
// (0, 0), matching the package's non-panicking empty-set contract.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

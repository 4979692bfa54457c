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
		Stddev: stddev(sorted),
		P05:    Percentile(sorted, 5),
		P95:    Percentile(sorted, 95),
	}
	s.CILo, s.CIHi = meanCI(sorted, SummaryConfidence)
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

// stddev returns the sample standard deviation of xs (0 for n < 2).
func stddev(xs []float64) float64 {
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

// median returns the middle value of xs (interpolated for even n, 0 for
// empty input).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Percentile(sorted, 50)
}

// mad returns the median absolute deviation of xs scaled by 1.4826, the
// consistency constant that makes it estimate the standard deviation for
// normal data (0 for empty input).
func mad(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	return 1.4826 * median(devs)
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
	center := median(xs)
	scale := mad(xs)
	if scale == 0 {
		scale = stddev(xs)
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

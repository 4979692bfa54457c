package stats

// This file holds the uncertainty math behind the adaptive measurement
// methodology (DESIGN.md §9): Student-t confidence intervals on the mean,
// Tukey's trimean, the iid/stationarity diagnostics (lag-1 autocorrelation
// and the Wald–Wolfowitz runs test), and MSER warmup detection. Everything
// is deterministic: no function reads the wall clock.

import (
	"math"
	"sort"
)

// normalQuantile returns the standard normal quantile for probability p in
// (0,1), using the Acklam rational approximation (|error| < 1.2e-9 over the
// full range). Out-of-range p clamp to ±Inf.
func normalQuantile(p float64) float64 {
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// tQuantile returns the two-sided Student-t critical value t* such that a
// t-distributed variable with df degrees of freedom lies in [-t*, t*] with
// the given confidence (e.g. 0.95). df < 1 or confidence outside (0,1)
// return NaN. Exact closed forms cover df 1 and 2; larger df use Hill's
// Cornish–Fisher expansion around the normal quantile (error well under 1%
// for df >= 3, converging to the normal value as df grows).
func tQuantile(df int, confidence float64) float64 {
	if df < 1 || confidence <= 0 || confidence >= 1 {
		return math.NaN()
	}
	// One-tail probability of each side.
	alpha := 1 - confidence
	p := 1 - alpha/2
	switch df {
	case 1:
		return math.Tan(math.Pi * (p - 0.5))
	case 2:
		// Closed form for df=2: t = (2p-1) * sqrt(2 / (1 - (2p-1)^2)).
		u := 2*p - 1
		return u * math.Sqrt(2/(1-u*u))
	}
	z := normalQuantile(p)
	// Hill's asymptotic expansion (Algorithm 396 family): a polynomial
	// correction in z with inverse powers of df.
	g1 := func(z float64) float64 { return (z*z*z + z) / 4 }
	g2 := func(z float64) float64 { return (5*math.Pow(z, 5) + 16*z*z*z + 3*z) / 96 }
	g3 := func(z float64) float64 { return (3*math.Pow(z, 7) + 19*math.Pow(z, 5) + 17*z*z*z - 15*z) / 384 }
	g4 := func(z float64) float64 {
		return (79*math.Pow(z, 9) + 776*math.Pow(z, 7) + 1482*math.Pow(z, 5) - 1920*z*z*z - 945*z) / 92160
	}
	n := float64(df)
	return z + g1(z)/n + g2(z)/(n*n) + g3(z)/(n*n*n) + g4(z)/(n*n*n*n)
}

// meanCI returns the two-sided Student-t confidence interval for the mean
// of xs at the given confidence level. Fewer than two samples (no variance
// estimate) yield the degenerate interval [mean, mean].
func meanCI(xs []float64, confidence float64) (lo, hi float64) {
	m := Mean(xs)
	if len(xs) < 2 {
		return m, m
	}
	sd := stddev(xs)
	if sd == 0 {
		return m, m
	}
	hw := tQuantile(len(xs)-1, confidence) * sd / math.Sqrt(float64(len(xs)))
	return m - hw, m + hw
}

// trimean returns Tukey's trimean (Q1 + 2*median + Q3)/4 — the robust
// location estimate the TEMPI-style harness reports. Empty input yields 0.
func trimean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return (Percentile(sorted, 25) + 2*Percentile(sorted, 50) + Percentile(sorted, 75)) / 4
}

// autocorr1 returns the lag-1 sample autocorrelation of xs, the primary
// stationarity diagnostic of the iid check. Fewer than three samples or
// zero variance yield 0.
func autocorr1(xs []float64) float64 {
	n := len(xs)
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i, x := range xs {
		d := x - m
		den += d * d
		if i > 0 {
			num += d * (xs[i-1] - m)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// runsTestZ returns the Wald–Wolfowitz runs-test z statistic of xs around
// its median: the number of runs of consecutive above/below-median samples,
// standardized against the count expected under independence. |z| > ~1.96
// rejects independence at the 5% level. Samples equal to the median are
// dropped; fewer than two samples on either side yield 0 (no evidence).
func runsTestZ(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	median := Percentile(sorted, 50)
	var signs []bool
	for _, x := range xs {
		if x == median {
			continue
		}
		signs = append(signs, x > median)
	}
	var n1, n2 float64
	runs := 0
	for i, s := range signs {
		if s {
			n1++
		} else {
			n2++
		}
		if i == 0 || signs[i-1] != s {
			runs++
		}
	}
	if n1 < 2 || n2 < 2 {
		return 0
	}
	mean := 2*n1*n2/(n1+n2) + 1
	variance := (mean - 1) * (mean - 2) / (n1 + n2 - 1)
	if variance <= 0 {
		return 0
	}
	return (float64(runs) - mean) / math.Sqrt(variance)
}

// IIDThresholds bound the iid diagnostics: |lag-1 autocorrelation| must stay
// below IIDMaxAutocorr and the runs-test |z| below IIDMaxRunsZ (the 5%
// two-sided normal critical value).
const (
	IIDMaxAutocorr = 0.5
	IIDMaxRunsZ    = 1.96
)

// isIID reports whether xs passes both stationarity diagnostics — the
// TEMPI-style gate before trusting a confidence interval. Short or
// degenerate sample sets pass (no evidence against independence).
func isIID(xs []float64) bool {
	return math.Abs(autocorr1(xs)) < IIDMaxAutocorr && math.Abs(runsTestZ(xs)) < IIDMaxRunsZ
}

// DetectWarmup returns how many leading samples of xs to discard before
// aggregation, using the MSER rule (White's marginal standard error rule):
// the truncation point d minimizing Var(xs[d:]) / (n-d)^2 — the point where
// dropping more initialization bias stops paying for the lost sample count.
// The cut is capped at maxDrop (and at len(xs)/2 regardless), so a noisy
// tail can never eat the whole series; maxDrop <= 0 means "cap at half".
// Series shorter than 4 samples are never truncated.
func DetectWarmup(xs []float64, maxDrop int) int {
	n := len(xs)
	if n < 4 {
		return 0
	}
	limit := n / 2
	if maxDrop > 0 && maxDrop < limit {
		limit = maxDrop
	}
	best, bestD := math.Inf(1), 0
	for d := 0; d <= limit; d++ {
		rest := xs[d:]
		m := float64(len(rest))
		mean := Mean(rest)
		var ss float64
		for _, x := range rest {
			dd := x - mean
			ss += dd * dd
		}
		mser := ss / (m * m * m) // Var/m^2 = (ss/m)/m^2
		if mser < best {
			best, bestD = mser, d
		}
	}
	return bestD
}

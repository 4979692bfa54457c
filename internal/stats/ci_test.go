package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
		{0.9, 1.281552},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("normalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("boundary p must clamp to ±Inf")
	}
	if !math.IsNaN(normalQuantile(math.NaN())) {
		t.Error("NaN p must yield NaN")
	}
}

func TestTQuantile(t *testing.T) {
	// Reference values from standard t tables (two-sided 95% / 99%).
	cases := []struct {
		df   int
		conf float64
		want float64
		tol  float64
	}{
		{1, 0.95, 12.706, 0.01},
		{2, 0.95, 4.303, 0.01},
		{3, 0.95, 3.182, 0.02},
		{5, 0.95, 2.571, 0.01},
		{10, 0.95, 2.228, 0.005},
		{30, 0.95, 2.042, 0.005},
		{100, 0.95, 1.984, 0.005},
		{10, 0.99, 3.169, 0.01},
		{5, 0.90, 2.015, 0.01},
	}
	for _, c := range cases {
		if got := tQuantile(c.df, c.conf); math.Abs(got-c.want) > c.tol {
			t.Errorf("TQuantile(%d, %v) = %v, want %v ± %v", c.df, c.conf, got, c.want, c.tol)
		}
	}
	if !math.IsNaN(tQuantile(0, 0.95)) || !math.IsNaN(tQuantile(5, 0)) || !math.IsNaN(tQuantile(5, 1)) {
		t.Error("bad df/confidence must yield NaN")
	}
}

func TestMeanCI(t *testing.T) {
	// n=5, mean=30, sd=sqrt(250)=15.811; t(4, .95)=2.776 → hw=19.63.
	xs := []float64{10, 20, 30, 40, 50}
	lo, hi := meanCI(xs, 0.95)
	if math.Abs((hi+lo)/2-30) > 1e-9 {
		t.Fatalf("CI not centered on mean: [%v, %v]", lo, hi)
	}
	if hw := (hi - lo) / 2; math.Abs(hw-19.63) > 0.05 {
		t.Fatalf("half-width = %v, want ≈ 19.63", hw)
	}
	// Degenerate: no variance.
	if lo, hi := meanCI([]float64{4, 4, 4}, 0.95); lo != 4 || hi != 4 {
		t.Fatalf("zero-variance CI = [%v, %v], want [4,4]", lo, hi)
	}
}

func TestTrimean(t *testing.T) {
	// {1..5}: Q1=2, med=3, Q3=4 → (2+6+4)/4 = 3.
	if got := trimean([]float64{5, 1, 4, 2, 3}); !almost(got, 3) {
		t.Fatalf("Trimean = %v, want 3", got)
	}
	// Skewed set: trimean resists the tail more than the mean does.
	xs := []float64{1, 2, 3, 4, 1000}
	if tm, m := trimean(xs), Mean(xs); tm >= m {
		t.Fatalf("Trimean %v should sit below mean %v on a right-skewed set", tm, m)
	}
}

func TestAutocorr1(t *testing.T) {
	// Strong positive correlation: a slow ramp.
	ramp := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := autocorr1(ramp); got < 0.5 {
		t.Fatalf("ramp autocorr = %v, want strongly positive", got)
	}
	// Alternating series: strong negative correlation.
	alt := []float64{1, -1, 1, -1, 1, -1, 1, -1}
	if got := autocorr1(alt); got > -0.5 {
		t.Fatalf("alternating autocorr = %v, want strongly negative", got)
	}
}

func TestRunsTest(t *testing.T) {
	// Perfect alternation around the median → far more runs than chance.
	alt := []float64{1, 9, 1, 9, 1, 9, 1, 9, 1, 9, 1, 9}
	if z := runsTestZ(alt); z < 1.96 {
		t.Fatalf("alternating runs z = %v, want > 1.96", z)
	}
	// Two long blocks → far fewer runs than chance.
	blocks := []float64{1, 1, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9}
	if z := runsTestZ(blocks); z > -1.96 {
		t.Fatalf("blocked runs z = %v, want < -1.96", z)
	}
}

func TestIsIID(t *testing.T) {
	// A well-mixed sequence passes.
	rng := rand.New(rand.NewSource(5))
	mixed := make([]float64, 30)
	for i := range mixed {
		mixed[i] = rng.Float64()
	}
	if !isIID(mixed) {
		t.Errorf("mixed sequence flagged non-iid: acf=%v z=%v",
			autocorr1(mixed), runsTestZ(mixed))
	}
	// A trending sequence fails.
	trend := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if isIID(trend) {
		t.Error("monotone trend passed the iid gate")
	}
}

func TestDetectWarmup(t *testing.T) {
	// Two hot leading samples then a flat steady state: MSER cuts exactly 2.
	xs := []float64{100, 50, 10, 10, 10, 10, 10, 10, 10, 10}
	if got := DetectWarmup(xs, 0); got != 2 {
		t.Fatalf("DetectWarmup = %d, want 2", got)
	}
	// maxDrop caps the cut below the optimum.
	if got := DetectWarmup(xs, 1); got != 1 {
		t.Fatalf("DetectWarmup capped = %d, want 1", got)
	}
	// A flat series needs no truncation.
	flat := []float64{7, 7, 7, 7, 7, 7}
	if got := DetectWarmup(flat, 0); got != 0 {
		t.Fatalf("flat DetectWarmup = %d, want 0", got)
	}
	// The cap at n/2 holds even when the whole series trends.
	trend := []float64{9, 8, 7, 6, 5, 4, 3, 2}
	if got := DetectWarmup(trend, 0); got > len(trend)/2 {
		t.Fatalf("DetectWarmup = %d exceeds half the series", got)
	}
}

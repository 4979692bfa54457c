package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestStddev(t *testing.T) {
	if got := stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138089935) > 1e-6 {
		t.Fatalf("Stddev = %v", got)
	}
	if got := stddev([]float64{5}); got != 0 {
		t.Fatalf("Stddev single = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50}, {-5, 10}, {110, 50},
		{10, 14}, // interpolated: rank 0.4 between 10 and 20
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almost(s.Mean, 2) || !almost(s.Median, 2) {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSummarizeEmptyIsZero(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero Summary", s)
	}
	if s := Summarize([]float64{}); s.N != 0 {
		t.Fatalf("Summarize(empty) N = %d, want 0", s.N)
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Median != 7 || s.Min != 7 || s.Max != 7 ||
		s.Stddev != 0 || s.P05 != 7 || s.P95 != 7 {
		t.Fatalf("Summarize single sample = %+v", s)
	}
}

func TestPercentileEmptyAndSingle(t *testing.T) {
	for _, p := range []float64{-5, 0, 50, 100, 250} {
		if got := Percentile(nil, p); got != 0 {
			t.Fatalf("Percentile(nil, %v) = %v, want 0", p, got)
		}
		if got := Percentile([]float64{3}, p); got != 3 {
			t.Fatalf("Percentile([3], %v) = %v, want 3", p, got)
		}
	}
}

func TestPruneOutliers(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 10, 11, 9, 10, 1000}
	kept := PruneOutliers(xs, 2)
	for _, x := range kept {
		if x == 1000 {
			t.Fatal("outlier survived pruning")
		}
	}
	if len(kept) != len(xs)-1 {
		t.Fatalf("kept %d, want %d", len(kept), len(xs)-1)
	}
}

func TestPruneOutliersDegenerate(t *testing.T) {
	xs := []float64{5, 5, 5}
	if got := PruneOutliers(xs, 2); len(got) != 3 {
		t.Fatalf("identical samples pruned: %v", got)
	}
	two := []float64{1, 100}
	if got := PruneOutliers(two, 2); len(got) != 2 {
		t.Fatalf("tiny sets must not be pruned: %v", got)
	}
	if got := PruneOutliers(xs, 0); len(got) != 3 {
		t.Fatalf("k=0 must disable pruning: %v", got)
	}
}

// TestEdgeCaseContract pins the unified non-panicking behavior of every
// exported function on empty and degenerate input.
func TestEdgeCaseContract(t *testing.T) {
	for name, got := range map[string]float64{
		"Mean(nil)":       Mean(nil),
		"Stddev(nil)":     stddev(nil),
		"Stddev(single)":  stddev([]float64{5}),
		"Percentile(nil)": Percentile(nil, 50),
		"Median(nil)":     median(nil),
		"MAD(nil)":        mad(nil),
		"Trimean(nil)":    trimean(nil),
		"Autocorr1(nil)":  autocorr1(nil),
		"Autocorr1(pair)": autocorr1([]float64{1, 2}),
		"RunsTestZ(nil)":  runsTestZ(nil),
		"RunsTestZ(ties)": runsTestZ([]float64{3, 3, 3, 3}),
	} {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
	if lo, hi := meanCI(nil, 0.95); lo != 0 || hi != 0 {
		t.Errorf("MeanCI(nil) = %v, %v, want 0, 0", lo, hi)
	}
	if lo, hi := meanCI([]float64{4}, 0.95); lo != 4 || hi != 4 {
		t.Errorf("MeanCI(single) = %v, %v, want degenerate [4,4]", lo, hi)
	}
	if d := DetectWarmup(nil, 0); d != 0 {
		t.Errorf("DetectWarmup(nil) = %d, want 0", d)
	}
	if d := DetectWarmup([]float64{9, 1, 1}, 0); d != 0 {
		t.Errorf("DetectWarmup(short) = %d, want 0 (n < 4 never truncates)", d)
	}
	if !isIID(nil) || !isIID([]float64{1}) {
		t.Error("IsIID on empty/tiny input must pass (no evidence)")
	}
	if kept := PruneOutliers(nil, 3); kept != nil {
		t.Errorf("PruneOutliers(nil) = %v, want nil", kept)
	}
}

// TestPruneOutliersSpikeRegression pins the median+MAD fix: a single huge
// spike inflates the naive mean and stddev enough to sit inside its own
// 3·sd fence (|1e6 - mean| ≈ 2.85·sd for these samples), so the old
// mean/sd implementation kept it. The robust cut must prune it.
func TestPruneOutliersSpikeRegression(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 10, 11, 9, 10, 11, 1e6}
	m, sd := Mean(xs), stddev(xs)
	if math.Abs(1e6-m) > 3*sd {
		t.Fatalf("fixture no longer exercises the bug: spike is %.2f sd from mean, want <= 3",
			math.Abs(1e6-m)/sd)
	}
	kept := PruneOutliers(xs, 3)
	for _, x := range kept {
		if x == 1e6 {
			t.Fatal("spike survived robust pruning")
		}
	}
	if len(kept) != len(xs)-1 {
		t.Fatalf("kept %d samples, want %d", len(kept), len(xs)-1)
	}
}

func TestPruneOutliersMADZeroFallsBackToStddev(t *testing.T) {
	// More than half the samples identical → MAD = 0; the sd fallback must
	// still prune the far point rather than dividing by zero scale.
	xs := []float64{5, 5, 5, 5, 5, 5, 5, 1000}
	kept := PruneOutliers(xs, 2)
	for _, x := range kept {
		if x == 1000 {
			t.Fatal("outlier survived sd fallback")
		}
	}
	if len(kept) != len(xs)-1 {
		t.Fatalf("kept %d, want %d", len(kept), len(xs)-1)
	}
}

func TestMedianAndMAD(t *testing.T) {
	if got := median([]float64{3, 1, 2}); !almost(got, 2) {
		t.Fatalf("Median = %v, want 2", got)
	}
	if got := median([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Fatalf("Median even = %v, want 2.5", got)
	}
	// MAD of {1,2,3,4,5}: median 3, |devs| {2,1,0,1,2}, median dev 1.
	if got := mad([]float64{1, 2, 3, 4, 5}); !almost(got, 1.4826) {
		t.Fatalf("MAD = %v, want 1.4826", got)
	}
	if got := mad([]float64{7, 7, 7}); got != 0 {
		t.Fatalf("MAD identical = %v, want 0", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		xs := append([]float64(nil), raw...)
		sort.Float64s(xs)
		a := math.Mod(math.Abs(p1), 100)
		b := math.Mod(math.Abs(p2), 100)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		return pa <= pb && pa >= xs[0] && pb <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: pruning never removes all samples and never increases the spread.
func TestQuickPruneKeepsSubset(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		kept := PruneOutliers(xs, 2)
		if len(kept) == 0 || len(kept) > len(xs) {
			return false
		}
		// Every kept sample must come from the input.
		counts := map[float64]int{}
		for _, x := range xs {
			counts[x]++
		}
		for _, x := range kept {
			if counts[x] == 0 {
				return false
			}
			counts[x]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

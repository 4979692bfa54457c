package main

import (
	"math"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles of 1..5 = %v %v %v, want 2 3 4", q1, med, q3)
	}
	// Interpolation between order statistics on an even count.
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if q1, med, q3 := quartiles(nil); q1 != 0 || med != 0 || q3 != 0 {
		t.Fatal("quartiles of nothing must be zero")
	}
	if got := spread([]float64{9, 10, 10, 10, 11}); got != 0 {
		t.Fatalf("spread = %v, want 0 (quartiles coincide)", got)
	}
	if got := spread([]float64{8, 9, 10, 11, 12}); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("spread = %v, want 0.2", got)
	}
}

func TestTailPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 1000 samples: p99 is rank 990 and has 10 beyond it.
	if v, used, beyond := tailPercentile(xs, 99, 10); v != 990 || used != 99 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v (p%v, %d beyond), want 990 (p99, 10 beyond)", v, used, beyond)
	}
	// Asking for 50 beyond fails at p99 (10 beyond) and at p95 (50 beyond)
	// passes: the function steps down, and says so.
	if v, used, beyond := tailPercentile(xs, 99, 50); v != 950 || used != 95 || beyond != 50 {
		t.Fatalf("p99 with 50 beyond = %v (p%v, %d beyond), want 950 (p95, 50 beyond)", v, used, beyond)
	}
	// 99 samples cannot support a p99 with 10 beyond; p90 has 9, p75 has 24.
	if _, used, beyond := tailPercentile(xs[:99], 99, 10); used != 75 || beyond != 24 {
		t.Fatalf("99 samples: used p%v with %d beyond, want p75 with 24", used, beyond)
	}
	// A handful of samples falls back to the median rather than to nothing.
	if v, used, _ := tailPercentile([]float64{3, 1, 2}, 99, 10); v != 2 || used != 50 {
		t.Fatalf("3 samples: %v at p%v, want the median 2 at p50", v, used)
	}
}

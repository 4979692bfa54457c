package core

import (
	"strings"
	"testing"

	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

func consumeCfg() Config {
	return Config{
		MessageBytes: 8 << 20,
		Partitions:   16,
		Compute:      10 * sim.Millisecond,
		Platform:     platform.Niagara().WithNoise(noise.Uniform, 4),
		Iterations:   3,
		Warmup:       1,
	}
}

func TestReceiveOverlapSpeedsUpConsumption(t *testing.T) {
	res, err := RunConsume(consumeCfg(), 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 || res.Partitioned <= 0 {
		t.Fatalf("non-positive spans: %+v", res)
	}
	if res.Speedup() <= 1.0 {
		t.Fatalf("receive-side overlap speedup = %.3f, want > 1 (baseline %v vs partitioned %v)",
			res.Speedup(), res.Baseline, res.Partitioned)
	}
	if !strings.Contains(res.String(), "speedup") {
		t.Fatalf("bad String: %q", res.String())
	}
}

func TestReceiveOverlapGrowsWithConsumeWork(t *testing.T) {
	// More per-partition consumer work gives the pipeline more to overlap.
	small, err := RunConsume(consumeCfg(), 500*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunConsume(consumeCfg(), 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Not strictly monotone in all regimes, but with these parameters the
	// larger consume work must overlap at least as well.
	if big.Speedup() < small.Speedup()*0.9 {
		t.Fatalf("speedup fell sharply with more consume work: %.3f -> %.3f", small.Speedup(), big.Speedup())
	}
}

func TestReceiveOverlapValidation(t *testing.T) {
	if _, err := RunConsume(consumeCfg(), -1); err == nil {
		t.Fatal("negative consume accepted")
	}
	bad := consumeCfg()
	bad.MessageBytes = 0
	if _, err := RunConsume(bad, sim.Millisecond); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestReceiveOverlapZeroConsumeNearOne(t *testing.T) {
	// With no consumer work, both modes are dominated by the transfer and
	// the speedup collapses toward ~1.
	res, err := RunConsume(consumeCfg(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() < 0.7 || res.Speedup() > 1.7 {
		t.Fatalf("zero-consume speedup = %.3f, want near 1", res.Speedup())
	}
}

// TestRunConsumePinned pins the exact spans of the `extensions -study
// overlap` table (64 MiB in 16 partitions, 5 ms of compute under 4 %
// uniform noise, THREAD_MULTIPLE). No golden covers RunConsume; the literals
// were recorded before its three forks became omp regions, which must not
// move them.
func TestRunConsumePinned(t *testing.T) {
	cfg := Config{
		MessageBytes: 64 << 20,
		Partitions:   16,
		Compute:      5 * sim.Millisecond,
		Iterations:   6,
		Warmup:       2,
		Platform:     platform.Niagara().WithNoise(noise.Uniform, 4).WithThreadMode(mpi.Multiple),
	}
	for _, want := range []struct{ consume, baseline, partitioned sim.Duration }{
		{0, 10791501, 10625228},
		{500 * sim.Microsecond, 11291501, 11125228},
		{2 * sim.Millisecond, 12791501, 12625228},
		{5 * sim.Millisecond, 15791501, 15625228},
	} {
		res, err := RunConsume(cfg, want.consume)
		if err != nil {
			t.Fatal(err)
		}
		if res.Baseline != want.baseline || res.Partitioned != want.partitioned {
			t.Errorf("consume %v: baseline %d ns, partitioned %d ns; pinned at %d, %d",
				want.consume, int64(res.Baseline), int64(res.Partitioned), int64(want.baseline), int64(want.partitioned))
		}
	}
}

package core

import (
	"encoding/json"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

func adaptiveRC(t *testing.T, spec string) *stats.RunConfig {
	t.Helper()
	rc, err := stats.ParseRunConfig(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &rc
}

func TestRunAdaptiveDeterministicCellConvergesAtMin(t *testing.T) {
	// No noise → zero variance → convergence at MinSamples, on one draw.
	cfg := Config{
		MessageBytes: 64 << 10,
		Partitions:   4,
		Compute:      0,
		Iterations:   3,
		Warmup:       1,
		Adaptive:     adaptiveRC(t, "min=2,max=16,ci=0.05"),
	}
	res, err := RunCached(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CI == nil {
		t.Fatal("adaptive result missing CI")
	}
	if !res.CI.Converged || res.CI.Reason != stats.ReasonConverged {
		t.Fatalf("deterministic cell did not converge: %+v", res.CI)
	}
	if res.CI.Draws != 1 {
		t.Fatalf("deterministic cell took %d draws, want 1", res.CI.Draws)
	}
	// 1 slack + 2 batch = 3 iterations vs fixed 1+3 = 4: a saving even on
	// the cheapest cell.
	if res.CI.TotalIterations >= cfg.Warmup+cfg.Iterations+1 {
		t.Fatalf("adaptive used %d iterations, fixed path uses %d",
			res.CI.TotalIterations, cfg.Warmup+cfg.Iterations)
	}
	if res.Overhead <= 0 || res.PerceivedBW <= 0 {
		t.Fatalf("bad point metrics: %+v", res)
	}
	if res.CI.Overhead.Lo > res.Overhead || res.CI.Overhead.Hi < res.Overhead {
		t.Fatalf("overhead %v outside its CI [%v, %v]",
			res.Overhead, res.CI.Overhead.Lo, res.CI.Overhead.Hi)
	}
}

func TestRunAdaptiveNoisyCellReportsExhaustion(t *testing.T) {
	// Heavy Gaussian noise and an unreachable 0.01% target: the cell must
	// ride to MaxSamples and say so, never silently under-deliver.
	pf := platform.Niagara().WithNoise(noise.Gaussian, 20)
	cfg := Config{
		MessageBytes: 64 << 10,
		Partitions:   4,
		Compute:      10 * sim.Microsecond,
		Iterations:   3,
		Warmup:       1,
		Platform:     pf,
		Adaptive:     adaptiveRC(t, "min=2,max=8,ci=0.0001"),
	}
	res, err := RunCached(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CI.Converged {
		t.Fatalf("noisy cell claims convergence: %+v", res.CI)
	}
	if res.CI.Reason != stats.ReasonMaxSamples {
		t.Fatalf("stop reason = %q, want %q", res.CI.Reason, stats.ReasonMaxSamples)
	}
	if n := res.CI.Overhead.N; n < 8 {
		t.Fatalf("exhausted cell gathered %d samples, want >= max 8", n)
	}
	if res.CI.Draws < 2 {
		t.Fatalf("noisy cell took %d draws, want several", res.CI.Draws)
	}
}

func TestRunAdaptiveReproducible(t *testing.T) {
	pf := platform.Niagara().WithNoise(noise.Uniform, 10)
	cfg := Config{
		MessageBytes: 64 << 10,
		Partitions:   4,
		Compute:      10 * sim.Microsecond,
		Iterations:   3,
		Warmup:       1,
		Platform:     pf,
		Adaptive:     adaptiveRC(t, "min=2,max=12,ci=0.1"),
	}
	a, err := RunCached(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("adaptive runs with identical config diverged")
	}
}

func TestAdaptiveOffJSONUnchanged(t *testing.T) {
	// The Adaptive pointer and CI block must vanish from JSON when unset, so
	// pre-adaptive cache keys and journals stay byte-identical.
	res, err := RunCached(nil, Config{MessageBytes: 4096, Partitions: 2, Iterations: 2, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"Adaptive", "CI", "draws", "rel_hw"} {
		if contains(j, forbidden) {
			t.Fatalf("fixed-path JSON mentions %q: %s", forbidden, j)
		}
	}
	// And the cache key is the same with and without the nil pointer field
	// (omitempty): recompute through the exported surface.
	cfg := Config{MessageBytes: 4096, Partitions: 2, Iterations: 2, Warmup: 1}.withDefaults()
	if cfg.CacheKey() == "" {
		t.Fatal("fixed config must be cacheable")
	}
}

func TestRunAdaptiveBudgetUncacheable(t *testing.T) {
	cfg := Config{
		MessageBytes: 4096,
		Partitions:   2,
		Iterations:   2,
		Warmup:       1,
		Adaptive:     adaptiveRC(t, "min=2,max=4,ci=0.5,budget=1h"),
	}.withDefaults()
	// The budgeted adaptive run must not enter the cache: two separate
	// runners must both simulate (observable via engine stats).
	rn := engine.New(engine.Workers(1))
	if _, err := RunCached(rn, cfg); err != nil {
		t.Fatal(err)
	}
	st := rn.Stats()
	if st.Runs == 0 {
		t.Fatal("no cells computed")
	}
	if _, err := RunCached(rn, cfg); err != nil {
		t.Fatal(err)
	}
	// Draws are cacheable (deterministic sub-configs) but the top-level
	// budgeted cell is not, so a second run recomputes only the top level.
	if rn.Stats().Hits == st.Hits {
		t.Fatal("sub-draws should have hit the cache on the second run")
	}
}

func TestAdaptiveSweepReducesRuns(t *testing.T) {
	// The headline claim of the methodology layer: on the quick-scale sweep
	// shape (3 iterations + 1 warmup per cell), adaptive sampling must cut
	// total simulated iterations by at least 20% while every cell either
	// meets the CI target or says why not.
	cfg := Config{
		Partitions: 4,
		Iterations: 3,
		Warmup:     1,
	}
	sizes := MessageSizes(32<<10, 512<<10)
	fixedPerCell := cfg.Warmup + cfg.Iterations

	acfg := cfg
	acfg.Adaptive = adaptiveRC(t, "min=2,max=16,ci=0.05")
	rn := engine.New(engine.Workers(2))
	results, err := SweepMessageSizes(rn, acfg, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var adaptiveTotal, fixedTotal int
	for _, r := range results {
		if r.CI == nil {
			t.Fatalf("adaptive sweep cell %d missing CI", r.Config.MessageBytes)
		}
		if !r.CI.Converged && r.CI.Reason == "" {
			t.Fatalf("unconverged cell with no stop reason: %+v", r.CI)
		}
		adaptiveTotal += r.CI.TotalIterations
		fixedTotal += fixedPerCell
	}
	if adaptiveTotal == 0 {
		t.Fatal("no iterations recorded")
	}
	saving := 1 - float64(adaptiveTotal)/float64(fixedTotal)
	if saving < 0.20 {
		t.Fatalf("adaptive saved only %.1f%% of runs (%d vs fixed %d), want >= 20%%",
			100*saving, adaptiveTotal, fixedTotal)
	}
	t.Logf("adaptive: %d iterations vs fixed %d (%.0f%% saved)", adaptiveTotal, fixedTotal, 100*saving)
}

func contains(b []byte, s string) bool {
	return string(b) != "" && len(s) > 0 && string(b) != s && indexOf(b, s) >= 0
}

func indexOf(b []byte, s string) int {
	for i := 0; i+len(s) <= len(b); i++ {
		if string(b[i:i+len(s)]) == s {
			return i
		}
	}
	return -1
}

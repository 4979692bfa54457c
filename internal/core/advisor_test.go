package core

import (
	"strings"
	"testing"

	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

func adviseCfg() Config {
	return Config{
		MessageBytes: 1 << 20,
		Compute:      10 * sim.Millisecond,
		Platform: platform.Niagara().
			WithNoise(noise.SingleThread, 4).
			WithThreadMode(mpi.Multiple),
		Iterations: 3,
		Warmup:     1,
		Partitions: 1, // ignored by Advise, needed by validation
	}
}

func TestAdviseRanksCandidates(t *testing.T) {
	adv, err := Advise(nil, adviseCfg(), []int{1, 4, 16}, DefaultAdvisorWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Candidates) != 3 {
		t.Fatalf("candidates = %d, want 3", len(adv.Candidates))
	}
	for i := 1; i < len(adv.Candidates); i++ {
		if adv.Candidates[i].Score > adv.Candidates[i-1].Score {
			t.Fatalf("candidates not sorted by score: %v then %v",
				adv.Candidates[i-1].Score, adv.Candidates[i].Score)
		}
	}
	if adv.String() == "" || !strings.Contains(adv.String(), "recommended partitions") {
		t.Fatalf("bad advice string %q", adv.String())
	}
}

func TestAdvisePrefersMultiplePartitionsUnderNoise(t *testing.T) {
	// With noise and medium messages the whole point of the paper is that
	// partitioning wins; 1 partition must not be recommended.
	adv, err := Advise(nil, adviseCfg(), []int{1, 2, 4, 8, 16}, DefaultAdvisorWeights())
	if err != nil {
		t.Fatal(err)
	}
	if best := adv.best(); best.Partitions == 1 {
		t.Fatalf("advisor recommended 1 partition under noise: %+v", best)
	}
}

func TestAdviseFlagsPlatformHazards(t *testing.T) {
	adv, err := Advise(nil, adviseCfg(), []int{16, 32, 64}, DefaultAdvisorWeights())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range adv.Candidates {
		switch c.Partitions {
		case 16:
			if !c.FitsSocket || c.Oversubscribed {
				t.Errorf("16 partitions misflagged: %+v", c)
			}
		case 32:
			if c.FitsSocket || c.Oversubscribed {
				t.Errorf("32 partitions misflagged: %+v", c)
			}
		case 64:
			if c.FitsSocket || !c.Oversubscribed {
				t.Errorf("64 partitions misflagged: %+v", c)
			}
		}
	}
}

func TestAdviseDefaultsAndErrors(t *testing.T) {
	adv, err := Advise(nil, adviseCfg(), nil, DefaultAdvisorWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Candidates) == 0 {
		t.Fatal("default counts produced no candidates")
	}
	cfg := adviseCfg()
	cfg.MessageBytes = 7 // nothing divides it except 1... 1 divides it
	adv2, err := Advise(nil, cfg, []int{2, 4}, DefaultAdvisorWeights())
	if err == nil {
		t.Fatalf("expected error for indivisible size, got %v", adv2.Candidates)
	}
}

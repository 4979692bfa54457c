package classic

import (
	"strings"
	"testing"

	"partmb/internal/netsim"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

func quickCfg() Config {
	return Config{Iterations: 20, Warmup: 2}
}

func TestLatencyGrowsWithSize(t *testing.T) {
	pts, err := Latency(nil, quickCfg(), []int64{8, 8 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value {
			t.Fatalf("latency not increasing: %v", pts)
		}
	}
	// Small-message half round trip should be a couple of microseconds.
	if small := pts[0].Value; small < 1e-6 || small > 10e-6 {
		t.Fatalf("8B latency = %v s, want O(2us)", small)
	}
}

func TestLatencyMatchesModel(t *testing.T) {
	net := netsim.EDR()
	pts, err := Latency(nil, quickCfg(), []int64{8})
	if err != nil {
		t.Fatal(err)
	}
	// Half round trip ~= o_s + L + o_r + call overheads.
	model := (net.SendOverhead + net.Latency + net.RecvOverhead).Seconds()
	if got := pts[0].Value; got < model || got > 2.5*model {
		t.Fatalf("8B latency %v s, want within ~2x of %v s", got, model)
	}
}

func TestBandwidthApproachesLink(t *testing.T) {
	pts, err := Bandwidth(nil, quickCfg(), []int64{4 << 20}, 16)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.EDR().Bandwidth
	if got := pts[0].Value; got < 0.9*link || got > 1.01*link {
		t.Fatalf("streaming bandwidth %.3g, want ~%.3g", got, link)
	}
}

func TestBandwidthSmallMessagesOverheadBound(t *testing.T) {
	pts, err := Bandwidth(nil, quickCfg(), []int64{64}, 32)
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.EDR().Bandwidth
	if pts[0].Value > link/10 {
		t.Fatalf("64B bandwidth %.3g unreasonably high", pts[0].Value)
	}
}

func TestBiBandwidthRoughlyDoubles(t *testing.T) {
	uni, err := Bandwidth(nil, quickCfg(), []int64{4 << 20}, 8)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := BiBandwidth(nil, quickCfg(), []int64{4 << 20}, 8)
	if err != nil {
		t.Fatal(err)
	}
	ratio := bi[0].Value / uni[0].Value
	if ratio < 1.6 || ratio > 2.2 {
		t.Fatalf("bi/uni bandwidth ratio = %.2f, want ~2 (full duplex)", ratio)
	}
}

func TestMessageRate(t *testing.T) {
	rate, err := MessageRate(nil, quickCfg(), 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Bounded by per-message send overhead (500ns) => <= 2M msgs/s.
	if rate < 1e5 || rate > 2.1e6 {
		t.Fatalf("message rate = %.3g msg/s, want O(1e6)", rate)
	}
}

func TestThreadLatencyGrowsWithThreads(t *testing.T) {
	cfg := quickCfg()
	one, err := ThreadLatency(nil, cfg, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := ThreadLatency(nil, cfg, 8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if eight <= one {
		t.Fatalf("multithreaded latency did not grow: 1t=%v 8t=%v", one, eight)
	}
}

func TestMatchStressGrowsWithDepth(t *testing.T) {
	cfg := quickCfg()
	shallow, err := MatchStress(nil, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := MatchStress(nil, cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	if deep <= shallow {
		t.Fatalf("matching cost did not grow with depth: 0=%v 200=%v", shallow, deep)
	}
}

func TestPartLatencyOnePartitionNearPt2Pt(t *testing.T) {
	cfg := quickCfg()
	part, err := PartLatency(nil, cfg, 64<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Latency(nil, cfg, []int64{64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p2p := sim.Duration(pts[0].Value * 1e9)
	ratio := float64(part) / float64(p2p)
	if ratio < 0.8 || ratio > 2.5 {
		t.Fatalf("1-partition epoch %v vs p2p %v: ratio %.2f out of range", part, p2p, ratio)
	}
}

func TestPartLatencyValidation(t *testing.T) {
	if _, err := PartLatency(nil, quickCfg(), 100, 3); err == nil {
		t.Fatal("indivisible partitioning accepted")
	}
	if _, err := PartLatency(nil, quickCfg(), 64, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	bad := Config{Iterations: -1}
	if _, err := Latency(nil, bad, []int64{8}); err == nil {
		t.Fatal("negative iterations accepted")
	}
	if _, err := Bandwidth(nil, quickCfg(), []int64{8}, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := MatchStress(nil, quickCfg(), -1); err == nil {
		t.Fatal("negative depth accepted")
	}
	if _, err := ThreadLatency(nil, quickCfg(), 0, 8); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := MessageRate(nil, quickCfg(), 0, 8); err == nil {
		t.Fatal("zero size accepted")
	}

	// An invalid platform is rejected by every entry point, before any cell
	// runs.
	badPlatform := quickCfg()
	badPlatform.Platform = platform.Niagara()
	badPlatform.Platform.NoisePercent = -1
	entries := map[string]func() error{
		"Latency":     func() error { _, err := Latency(nil, badPlatform, []int64{8}); return err },
		"Bandwidth":   func() error { _, err := Bandwidth(nil, badPlatform, []int64{8}, 4); return err },
		"BiBandwidth": func() error { _, err := BiBandwidth(nil, badPlatform, []int64{8}, 4); return err },
		"MessageRate": func() error { _, err := MessageRate(nil, badPlatform, 8, 4); return err },
		"ThreadLatency": func() error {
			_, err := ThreadLatency(nil, badPlatform, 2, 8)
			return err
		},
		"MatchStress": func() error { _, err := MatchStress(nil, badPlatform, 4); return err },
		"PartLatency": func() error { _, err := PartLatency(nil, badPlatform, 64, 4); return err },
	}
	for name, run := range entries {
		if err := run(); err == nil || !strings.Contains(err.Error(), "NoisePercent") {
			t.Errorf("%s with an invalid platform: err = %v, want the platform's error", name, err)
		}
	}
}

// TestThreadLatencyPinned pins the exact half round trips of the
// multithreaded latency test at one and four thread pairs. The literals were
// recorded before its ping and pong threads became one omp region, which
// must not move them.
func TestThreadLatencyPinned(t *testing.T) {
	for _, want := range []struct {
		threads int
		latency sim.Duration
	}{
		{1, 2040},
		{4, 4779},
	} {
		got, err := ThreadLatency(nil, quickCfg(), want.threads, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.latency {
			t.Errorf("%d threads: %d ns, pinned at %d", want.threads, int64(got), int64(want.latency))
		}
	}
}

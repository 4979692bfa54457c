package patterns

import (
	"strings"
	"testing"

	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

func incastCfg(mode Mode) IncastConfig {
	return IncastConfig{
		Senders:        6,
		Threads:        8,
		BytesPerThread: 64 << 10,
		Compute:        2 * sim.Millisecond,
		Repeats:        3,
		Mode:           mode,
		Platform:       platform.Niagara().WithNoise(noise.Uniform, 4).WithImpl(mpi.PartMPIPCL),
	}
}

func TestIncastAllModesComplete(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := runIncast(nil, incastCfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 || res.PayloadBytes <= 0 {
				t.Fatalf("bad result: %+v", res)
			}
		})
	}
}

func TestIncastPayloadAccounting(t *testing.T) {
	cfg := incastCfg(Partitioned)
	res, err := runIncast(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(cfg.Senders) * int64(cfg.Threads) * cfg.BytesPerThread * int64(cfg.Repeats)
	if res.PayloadBytes != want {
		t.Fatalf("payload = %d, want %d", res.PayloadBytes, want)
	}
}

func TestIncastSinkCongestionGrowsWithSenders(t *testing.T) {
	// More senders into one sink must not scale linearly: receiver-side
	// serialization congests. Throughput per sender falls.
	perSender := func(n int) float64 {
		cfg := incastCfg(Partitioned)
		cfg.Senders = n
		cfg.Compute = 100 * sim.Microsecond // communication-dominated
		cfg.BytesPerThread = 512 << 10
		res, err := runIncast(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput() / float64(n)
	}
	few := perSender(2)
	many := perSender(12)
	if many >= few {
		t.Fatalf("per-sender throughput did not fall under incast: 2s=%.3g 12s=%.3g", few, many)
	}
}

func TestIncastValidation(t *testing.T) {
	bad := []func(*IncastConfig){
		func(c *IncastConfig) { c.Senders = 0 },
		func(c *IncastConfig) { c.Threads = -1 },
		func(c *IncastConfig) { c.BytesPerThread = 0 },
		func(c *IncastConfig) { c.Repeats = 0 },
	}
	for i, mutate := range bad {
		cfg := incastCfg(Multi).withDefaults()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad incast config %d accepted", i)
		}
	}
}

func TestIncastDeterministic(t *testing.T) {
	a, err := runIncast(nil, incastCfg(Multi))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runIncast(nil, incastCfg(Multi))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("nondeterministic incast: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestIncastPinned pins the exact results of the threaded incast modes, whose
// per-repeat forks no golden covers. Elapsed is timed from the sink leaving
// the opening barrier, as the stencil motifs time from rank 0's.
func TestIncastPinned(t *testing.T) {
	for _, want := range []struct {
		mode              Mode
		elapsed           sim.Duration
		payload, messages int64
	}{
		{Multi, 6293455, 9437184, 474},
		{Partitioned, 6288360, 9437184, 474},
	} {
		res, err := runIncast(nil, incastCfg(want.mode))
		if err != nil {
			t.Fatal(err)
		}
		if res.Elapsed != want.elapsed || res.PayloadBytes != want.payload || res.Messages != want.messages {
			t.Errorf("%v: elapsed %d ns, %d B in %d messages; pinned at %d ns, %d B in %d",
				want.mode, int64(res.Elapsed), res.PayloadBytes, res.Messages, int64(want.elapsed), want.payload, want.messages)
		}
	}
}

// TestIncastRejectsPersistent: incast has no persistent-mode program, so a
// persistent config must fail validation instead of measuring nothing.
func TestIncastRejectsPersistent(t *testing.T) {
	res, err := runIncast(nil, incastCfg(Persistent))
	if err == nil || !strings.Contains(err.Error(), "persistent") {
		t.Fatalf("persistent incast: %v, %v; want a persistent-mode error", res, err)
	}
}

package netsim

import (
	"testing"

	"partmb/internal/sim"
)

func TestFabricIntraWingUncongested(t *testing.T) {
	f := NewFabric(NewDragonflyPlus(4, 900*sim.Nanosecond, 5*sim.Microsecond), 8, 2e9)
	if d := f.CrossDelay(0, 0, 3, 1<<20); d != 0 {
		t.Fatalf("intra-wing delay = %v, want 0", d)
	}
	if f.Latency(0, 3) != 900*sim.Nanosecond || f.Latency(0, 4) != 5*sim.Microsecond {
		t.Fatalf("base latencies wrong: %v %v", f.Latency(0, 3), f.Latency(0, 4))
	}
}

func TestFabricCrossWingQueues(t *testing.T) {
	// 1 MiB at 1 GB/s ~ 1048576 ns of serialization per transfer.
	f := NewFabric(NewDragonflyPlus(4, 900*sim.Nanosecond, 5*sim.Microsecond), 8, 1e9)
	size := int64(1 << 20)
	ser := sim.Duration(float64(size) / 1e9 * 1e9)

	d1 := f.CrossDelay(0, 0, 4, size)
	if d1 != ser {
		t.Fatalf("first transfer delay = %v, want %v", d1, ser)
	}
	// Second transfer from the same source queues behind the first.
	d2 := f.CrossDelay(0, 0, 4, size)
	if d2 != 2*ser {
		t.Fatalf("second transfer delay = %v, want %v", d2, 2*ser)
	}
	// A different source has its own share: no queuing.
	if d3 := f.CrossDelay(0, 1, 4, size); d3 != ser {
		t.Fatalf("other-source delay = %v, want %v", d3, ser)
	}
	// Once the share drains, no more queuing.
	if d4 := f.CrossDelay(sim.Time(10*ser), 0, 4, size); d4 != ser {
		t.Fatalf("post-drain delay = %v, want %v", d4, ser)
	}
}

func TestMinCrossLatency(t *testing.T) {
	blockOf := func(shards, ranks int) func(int) int {
		per := (ranks + shards - 1) / shards
		return func(r int) int { return r / per }
	}

	u := Uniform{L: 900 * sim.Nanosecond}
	if got := MinCrossLatency(u, 8, blockOf(2, 8)); got != u.L {
		t.Fatalf("uniform cross latency = %v", got)
	}
	if got := MinCrossLatency(u, 8, blockOf(1, 8)); got != 0 {
		t.Fatalf("single-shard cross latency = %v, want 0", got)
	}

	d := NewDragonflyPlus(4, 900*sim.Nanosecond, 5*sim.Microsecond)
	// Shards aligned with wings: the cheapest cross-shard pair is inter-wing.
	if got := MinCrossLatency(d, 8, blockOf(2, 8)); got != d.Inter {
		t.Fatalf("wing-aligned cross latency = %v, want %v", got, d.Inter)
	}
	// Misaligned shards split a wing: intra-wing pairs cross shards.
	if got := MinCrossLatency(d, 8, blockOf(4, 8)); got != d.Intra {
		t.Fatalf("misaligned cross latency = %v, want %v", got, d.Intra)
	}

	f := NewFabric(d, 8, 1e9)
	if got := MinCrossLatency(f, 8, blockOf(2, 8)); got != d.Inter {
		t.Fatalf("fabric cross latency = %v, want %v", got, d.Inter)
	}
}

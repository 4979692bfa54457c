package netsim

import (
	"fmt"

	"partmb/internal/sim"
)

// Congested is a Topology whose inter-group links have occupancy state:
// besides the base latency, a transfer pays a queuing + serialization delay
// on the shared global link. The mutable state must be owned by the source
// rank so a sharded simulation (see sim.ShardGroup) can update it from the
// sender's shard without cross-shard writes.
type Congested interface {
	Topology
	// CrossDelay returns the extra one-way delay for a transfer of size
	// bytes from src to dst requested at time now, updating the occupancy
	// state of src's share of the global link. Must be called from the
	// sender's simulation context, in nondecreasing-time order per source.
	CrossDelay(now sim.Time, src, dst int, size int64) sim.Duration
}

// Fabric is a Dragonfly+ topology with per-link occupancy on the global
// (inter-wing) links. Each rank owns a fair share of its wing's global-link
// bandwidth; inter-wing transfers serialize on that share, so bursts of
// cross-wing traffic from one rank queue behind each other and congestion
// emerges per source. Intra-wing traffic is uncongested (the leaf switch is
// non-blocking, as on the paper's testbed).
type Fabric struct {
	topo DragonflyPlus
	// globalBW is the per-rank share of global-link bandwidth, bytes/second.
	globalBW float64
	// busy[src] is the time src's global-link share is occupied until.
	busy []sim.Time
}

// NewFabric builds a congestion-aware fabric over a Dragonfly+ shape for
// the given number of ranks. globalBW is each rank's share of inter-wing
// bandwidth in bytes per second (typically a fraction of Params.Bandwidth:
// wings are tapered).
func NewFabric(topo DragonflyPlus, ranks int, globalBW float64) *Fabric {
	if ranks <= 0 {
		panic("netsim: fabric needs a positive rank count")
	}
	if globalBW <= 0 {
		panic("netsim: fabric global bandwidth must be positive")
	}
	return &Fabric{
		topo:     topo,
		globalBW: globalBW,
		busy:     make([]sim.Time, ranks),
	}
}

// Latency implements Topology with the underlying Dragonfly+ base latency.
func (f *Fabric) Latency(src, dst int) sim.Duration { return f.topo.Latency(src, dst) }

// Describe implements Topology.
func (f *Fabric) Describe() string {
	return fmt.Sprintf("%s, per-rank global-link share %.2gGB/s", f.topo.Describe(), f.globalBW/1e9)
}

// CrossDelay implements Congested: intra-wing transfers are free; an
// inter-wing transfer of size bytes queues behind src's earlier global
// transfers and then serializes at the per-rank global share.
func (f *Fabric) CrossDelay(now sim.Time, src, dst int, size int64) sim.Duration {
	if f.topo.wing(src) == f.topo.wing(dst) {
		return 0
	}
	start := now
	if f.busy[src] > start {
		start = f.busy[src]
	}
	ser := sim.Duration(0)
	if size > 0 {
		ser = sim.Duration(float64(size) / f.globalBW * 1e9)
	}
	f.busy[src] = start.Add(ser)
	return start.Sub(now) + ser
}

// MinCrossLatency returns the minimum one-way latency between any pair of
// ranks mapped to different shards by shardOf — the natural conservative
// lookahead for a sharded simulation of this topology. It returns 0 when no
// pair crosses shards (a single shard).
func MinCrossLatency(t Topology, ranks int, shardOf func(rank int) int) sim.Duration {
	// Fast path: a uniform topology has one latency everywhere.
	if u, ok := t.(Uniform); ok {
		for r := 1; r < ranks; r++ {
			if shardOf(r) != shardOf(0) {
				return u.L
			}
		}
		return 0
	}
	found := false
	var min sim.Duration
	for a := 0; a < ranks; a++ {
		for b := a + 1; b < ranks; b++ {
			if shardOf(a) == shardOf(b) {
				continue
			}
			l := t.Latency(a, b)
			if lb := t.Latency(b, a); lb < l {
				l = lb
			}
			if !found || l < min {
				found = true
				min = l
			}
		}
	}
	if !found {
		return 0
	}
	return min
}

package patterns

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/sim"
	"partmb/internal/trace"
)

// shardMapping builds the rank→shard function buildWorld partitions a world
// with. Block is the mapping; the variable is the seam through which the
// tests drive the sharded kernel under adversarial (skewed, round-robin)
// partitions, which must never change a result.
var shardMapping = cluster.BlockShards

// shardTracePids allocates one Chrome-trace process row per traced shard
// group, after the engine's rows (pid 0 = engine lanes, pid 1 = remote
// workers; see internal/obs).
var shardTracePids atomic.Int64

const shardTracePidBase = 2

// buildWorld constructs the simulation world a motif runs in on arena a: the
// sequential reference kernel when shards <= 1, otherwise a conservatively
// synchronized shard group with ranks block-mapped onto shards and the
// topology's minimum cross-shard latency as lookahead, built from a's shard
// slots, so it starts from the world, coroutines and events the arena's last
// simulation left and hands its own on. A non-nil tr records one span per
// executed shard-window on one lane per shard. The returned run function
// drives the simulation to completion; the stats function reports the
// group's execution counters after the run (nil for the sequential kernel,
// whose results the sharded runs must reproduce exactly).
func buildWorld(a *sim.Arena, shards, nRanks int, mcfg mpi.Config, topo netsim.Topology, tr *trace.Recorder) (*mpi.World, func() error, func() *sim.ShardStats, error) {
	if topo != nil {
		mcfg.Topology = topo
	}
	if shards <= 1 {
		s := a.New()
		return mpi.NewWorld(s, mcfg), s.Run, nil, nil
	}
	shardOf, err := shardMapping(nRanks, shards)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("patterns: %w", err)
	}
	if mcfg.Topology == nil {
		mcfg.Topology = netsim.Uniform{L: mcfg.Net.Latency}
	}
	la := netsim.MinCrossLatency(mcfg.Topology, nRanks, shardOf)
	if la <= 0 {
		return nil, nil, nil, fmt.Errorf("patterns: %s yields zero cross-shard lookahead for %d shards over %d ranks",
			mcfg.Topology.Describe(), shards, nRanks)
	}
	g := sim.NewShardGroup(a, shards, la)
	if tr != nil {
		pid := shardTracePidBase + int(shardTracePids.Add(1)) - 1
		g.SetSpanObserver(func(sp sim.ShardSpan) {
			tr.Span(pid, sp.Shard, "shard", fmt.Sprintf("shard %d", sp.Shard),
				sim.Time(sp.StartNS), sim.Time(sp.EndNS), map[string]string{
					"window": strconv.FormatInt(sp.Window, 10),
					"events": strconv.FormatInt(sp.Events, 10),
				})
		})
	}
	w, err := mpi.NewShardedWorld(g, mcfg, shardOf)
	if err != nil {
		return nil, nil, nil, err
	}
	stats := func() *sim.ShardStats {
		st := g.Stats()
		return &st
	}
	return w, g.Run, stats, nil
}

package patterns

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/trace"
)

// frame is what every motif run shares: build the world, place each rank's
// threads and seed its noise, launch one proc per rank, time from rank 0
// leaving the opening barrier to the last rank leaving the closing one, and
// total the NIC counters.
type frame struct {
	// name is the motif in errors ("patterns: <name> simulation failed");
	// procs names its rank procs "<procs>/rank<r>".
	name, procs string
	ranks       int
	// threads is the thread count every rank is placed and seeded for.
	threads int
	mode    Mode
	pf      *platform.Spec
	// shards, topo and tr go to buildWorld; zero values select the
	// sequential kernel on the platform's single-switch network.
	shards int
	topo   netsim.Topology
	tr     *trace.Recorder
}

// rankProgram is one rank's part of a motif: setup runs before the opening
// barrier, run between it and the closing one.
type rankProgram interface {
	setup(p *sim.Proc)
	run(p *sim.Proc)
}

// rankBuilder returns the program of rank comm, whose threads the frame has
// placed (place) and whose noise model it has seeded for the rank (nm).
type rankBuilder func(comm *mpi.Comm, place *cluster.Placement, nm *noise.Model) rankProgram

// run executes the motif on a simulation built on arena a, one program per
// rank from program, built in rank order.
func (f *frame) run(a *sim.Arena, program rankBuilder) (*Result, error) {
	pf := f.pf
	mcfg := pf.MPIConfig(f.ranks)
	configureMode(&mcfg, f.mode, pf.Impl)
	w, runSim, shardStats, err := buildWorld(a, f.shards, f.ranks, mcfg, f.topo, f.tr)
	if err != nil {
		return nil, err
	}
	progs := make([]rankProgram, f.ranks)
	for id := range progs {
		comm := w.Comm(id)
		place := cluster.Place(pf.Machine, f.threads)
		comm.SetPlacement(place)
		progs[id] = program(comm, place, noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed+int64(id), a))
	}
	var startAt sim.Time
	ends := make([]sim.Time, f.ranks)
	w.Launch(f.procs, func(c *mpi.Comm, p *sim.Proc) {
		r := progs[c.Rank()]
		r.setup(p)
		c.Barrier(p)
		if c.Rank() == 0 {
			startAt = p.Now()
		}
		r.run(p)
		c.Barrier(p)
		ends[c.Rank()] = p.Now()
	})
	if err := runSim(); err != nil {
		return nil, fmt.Errorf("patterns: %s simulation failed: %w", f.name, err)
	}
	res := &Result{Elapsed: slices.Max(ends).Sub(startAt)}
	for id := range progs {
		st := w.Comm(id).NICStats()
		res.PayloadBytes += st.Bytes
		res.Messages += st.Messages
	}
	if shardStats != nil {
		res.Shard = shardStats()
	}
	return res, nil
}

// configureMode applies the mode-dependent library configuration: Single
// and Persistent modes funnel all MPI calls through one thread; the
// threaded modes require MPI_THREAD_MULTIPLE (as the paper's MPIPCL setup
// did).
func configureMode(mcfg *mpi.Config, mode Mode, impl mpi.PartImpl) {
	switch mode {
	case Single, Persistent:
		mcfg.ThreadMode = mpi.Funneled
	case Multi, Partitioned:
		mcfg.ThreadMode = mpi.Multiple
	}
	mcfg.PartImpl = impl
}

// drawSteps pre-draws the noisy compute time of every thread in every step:
// out[step][thread].
func drawSteps(nm *noise.Model, steps, threads int, compute sim.Duration) [][]sim.Duration {
	out := make([][]sim.Duration, steps)
	for st := range out {
		out[st] = nm.Region(threads, compute)
	}
	return out
}

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

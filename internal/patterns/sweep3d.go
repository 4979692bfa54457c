package patterns

import (
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
	"partmb/internal/omp"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
	"partmb/internal/trace"
)

// SweepConfig describes a Sweep3D (KBA wavefront) run, after the Ember
// Sweep3D motif: ranks form a Px x Py grid; each of the eight octants sweeps
// diagonally across the grid in ZBlocks pipelined z-plane blocks. At each
// step a rank receives boundary data from its upstream x/y neighbours,
// computes, and forwards boundaries downstream.
type SweepConfig struct {
	// Px, Py define the process grid; the world has Px*Py ranks.
	Px, Py int
	// Threads is the thread (and partition) count per rank; forced to 1 in
	// Single mode.
	Threads int
	// BytesPerThread is each thread's contribution to every boundary
	// message (weak scaling: message size = Threads * BytesPerThread).
	BytesPerThread int64
	// Compute is the per-thread compute per sweep step.
	Compute sim.Duration
	// ZBlocks is the KBA pipeline depth per octant.
	ZBlocks int
	// Octants is the number of sweep corners exercised (1..8; the paper's
	// motif uses 8).
	Octants int
	// Repeats is the number of full sweeps.
	Repeats int
	// Mode selects single / multi / partitioned communication.
	Mode Mode
	// Platform bundles the hardware, noise, cache and partitioned-impl
	// settings (nil = the paper's Niagara/EDR defaults). ThreadMode is
	// derived from Mode, not the spec.
	Platform *platform.Spec
	// Shards runs the simulation on this many parallel event-loop shards
	// (0 or 1 = the sequential reference kernel); see HaloConfig.Shards.
	Shards int
	// ShardTrace records shard-window spans, one lane per shard; see
	// HaloConfig.ShardTrace. It does not affect the result.
	ShardTrace *trace.Recorder `json:"-"`
	// Topology overrides the network topology (nil = single-switch uniform).
	Topology netsim.Topology
	// Adaptive, when non-nil, estimates the motif's throughput from
	// repeated draws under derived noise seeds until the confidence
	// interval meets the target (see cells.go); nil keeps the fixed path
	// and its cache keys byte-identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.ZBlocks == 0 {
		c.ZBlocks = 4
	}
	if c.Octants == 0 {
		c.Octants = 8
	}
	if c.Repeats == 0 {
		c.Repeats = 2
	}
	c.Platform = c.Platform.Resolved()
	if c.Mode == Single {
		c.Threads = 1
	}
	return c
}

// validate checks the configuration.
func (c *SweepConfig) validate() error {
	if c.Px <= 0 || c.Py <= 0 {
		return fmt.Errorf("patterns: process grid %dx%d invalid", c.Px, c.Py)
	}
	if c.Threads <= 0 {
		return fmt.Errorf("patterns: Threads = %d, must be positive", c.Threads)
	}
	if c.BytesPerThread <= 0 {
		return fmt.Errorf("patterns: BytesPerThread must be positive")
	}
	if c.Compute < 0 {
		return fmt.Errorf("patterns: negative Compute")
	}
	if c.Octants < 1 || c.Octants > 8 {
		return fmt.Errorf("patterns: Octants = %d out of range [1,8]", c.Octants)
	}
	if c.ZBlocks <= 0 || c.Repeats <= 0 {
		return fmt.Errorf("patterns: ZBlocks and Repeats must be positive")
	}
	if c.Mode == Persistent {
		return fmt.Errorf("patterns: sweep3d does not support persistent mode (halo3d only)")
	}
	if c.Shards < 0 {
		return fmt.Errorf("patterns: Shards = %d, must be nonnegative", c.Shards)
	}
	return nil
}

// octantDir returns the (dx, dy) sweep direction of octant o; octants 4..7
// repeat the four corners with the opposite z direction, which has the same
// 2-D communication structure.
func octantDir(o int) (dx, dy int) {
	dx, dy = 1, 1
	if o&1 != 0 {
		dx = -1
	}
	if o&2 != 0 {
		dy = -1
	}
	return dx, dy
}

// sweepRank is the per-rank state of a Sweep3D run.
type sweepRank struct {
	cfg   SweepConfig
	comm  *mpi.Comm
	x, y  int
	place *cluster.Placement
	// computeOf[step][thread] is the pre-drawn noisy compute duration.
	computeOf [][]sim.Duration
	// Partitioned-mode persistent requests, indexed [octant][axis] with
	// axis 0 = x, 1 = y. Nil when the neighbour does not exist.
	precv [8][2]*mpi.PRequest
	psend [8][2]*mpi.PRequest

	// step choreography (Partitioned / Multi modes)
	team            *omp.Team
	curStep, curOct int

	// pending holds the current octant's Single-mode sends.
	pending []*mpi.Request

	endAt sim.Time
}

// neighbours returns the upstream and downstream rank ids for octant o
// (-1 when at the grid edge).
func (r *sweepRank) neighbours(o int) (upX, upY, downX, downY int) {
	dx, dy := octantDir(o)
	upX, upY, downX, downY = -1, -1, -1, -1
	if nx := r.x - dx; nx >= 0 && nx < r.cfg.Px {
		upX = r.y*r.cfg.Px + nx
	}
	if nx := r.x + dx; nx >= 0 && nx < r.cfg.Px {
		downX = r.y*r.cfg.Px + nx
	}
	if ny := r.y - dy; ny >= 0 && ny < r.cfg.Py {
		upY = ny*r.cfg.Px + r.x
	}
	if ny := r.y + dy; ny >= 0 && ny < r.cfg.Py {
		downY = ny*r.cfg.Px + r.x
	}
	return upX, upY, downX, downY
}

// stepTag builds a unique tag for (step, axis, thread) traffic in
// Single/Multi modes.
func stepTag(step, axis, thread int) int {
	return (step*2+axis)*256 + thread
}

// partTag is the fixed tag of the persistent partitioned pair for (octant,
// axis).
func partTag(oct, axis int) int { return oct*2 + axis + 1 }

// RunSweep3D executes the motif and returns its throughput result.
func RunSweep3D(cfg SweepConfig) (*Result, error) { return runSweep3D(nil, cfg) }

// runSweep3D is RunSweep3D with its simulation built on arena a.
func runSweep3D(a *sim.Arena, cfg SweepConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pf := cfg.Platform
	mcfg := mpi.DefaultConfig(cfg.Px * cfg.Py)
	mcfg.Net = pf.Net
	mcfg.Machine = pf.Machine
	mcfg.Mem = memsim.Default(pf.Cache)
	configureMode(&mcfg, cfg.Mode, pf.Impl)
	w, runSim, shardStats, err := buildWorld(a, cfg.Shards, cfg.Px*cfg.Py, mcfg, cfg.Topology, cfg.ShardTrace)
	if err != nil {
		return nil, err
	}

	steps := cfg.Repeats * cfg.Octants * cfg.ZBlocks
	ranks := make([]*sweepRank, cfg.Px*cfg.Py)
	var startAt sim.Time
	for id := range ranks {
		comm := w.Comm(id)
		place := cluster.Place(pf.Machine, cfg.Threads)
		comm.SetPlacement(place)
		nm := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed+int64(id), a)
		r := &sweepRank{
			cfg:   cfg,
			comm:  comm,
			x:     id % cfg.Px,
			y:     id / cfg.Px,
			place: place,
		}
		r.computeOf = make([][]sim.Duration, steps)
		for st := range r.computeOf {
			r.computeOf[st] = nm.Region(cfg.Threads, cfg.Compute)
		}
		ranks[id] = r
	}
	w.Launch("sweep", func(c *mpi.Comm, p *sim.Proc) {
		r := ranks[c.Rank()]
		r.setup(p)
		c.Barrier(p)
		if c.Rank() == 0 {
			startAt = p.Now()
		}
		r.run(p)
		c.Barrier(p)
		r.endAt = p.Now()
	})
	if err := runSim(); err != nil {
		return nil, fmt.Errorf("patterns: sweep3d simulation failed: %w", err)
	}
	res := &Result{}
	var maxEnd sim.Time
	for _, r := range ranks {
		st := r.comm.NICStats()
		res.PayloadBytes += st.Bytes
		res.Messages += st.Messages
		if r.endAt > maxEnd {
			maxEnd = r.endAt
		}
	}
	res.Elapsed = maxEnd.Sub(startAt)
	if shardStats != nil {
		res.Shard = shardStats()
	}
	return res, nil
}

// configureMode applies the mode-dependent library configuration: Single
// mode funnels all MPI calls through one thread; the threaded modes require
// MPI_THREAD_MULTIPLE (as the paper's MPIPCL setup did).
func configureMode(mcfg *mpi.Config, mode Mode, impl mpi.PartImpl) {
	switch mode {
	case Single, Persistent:
		mcfg.ThreadMode = mpi.Funneled
	case Multi, Partitioned:
		mcfg.ThreadMode = mpi.Multiple
	}
	mcfg.PartImpl = impl
}

// setup creates the persistent requests and the long-lived worker threads
// (the "OpenMP parallel region") of the Multi and Partitioned modes, which
// run one step per z-block.
func (r *sweepRank) setup(p *sim.Proc) {
	cfg := r.cfg
	if cfg.Mode == Partitioned {
		for o := 0; o < cfg.Octants; o++ {
			upX, upY, downX, downY := r.neighbours(o)
			if upX >= 0 {
				r.precv[o][0] = r.comm.PrecvInit(p, upX, partTag(o, 0), cfg.Threads, cfg.BytesPerThread)
			}
			if upY >= 0 {
				r.precv[o][1] = r.comm.PrecvInit(p, upY, partTag(o, 1), cfg.Threads, cfg.BytesPerThread)
			}
			if downX >= 0 {
				r.psend[o][0] = r.comm.PsendInit(p, downX, partTag(o, 0), cfg.Threads, cfg.BytesPerThread)
			}
			if downY >= 0 {
				r.psend[o][1] = r.comm.PsendInit(p, downY, partTag(o, 1), cfg.Threads, cfg.BytesPerThread)
			}
		}
	}
	if cfg.Mode == Multi || cfg.Mode == Partitioned {
		r.team = omp.NewTeam(p.Scheduler(), cfg.Threads, cfg.Repeats*cfg.Octants*cfg.ZBlocks, r)
	}
}

// Thread runs worker t's part of the current z-block: the rank is its
// team's body.
func (r *sweepRank) Thread(tp *sim.Proc, t int) {
	if r.cfg.Mode == Multi {
		r.multiWorkerStep(tp, t)
	} else {
		r.partWorkerStep(tp, t)
	}
}

func (r *sweepRank) ThreadName(t int) string {
	return fmt.Sprintf("sweep/rank%d/worker%d", r.comm.Rank(), t)
}

// run drives the sweep loop on the rank's main proc.
func (r *sweepRank) run(p *sim.Proc) {
	cfg := r.cfg
	step := 0
	for rep := 0; rep < cfg.Repeats; rep++ {
		for o := 0; o < cfg.Octants; o++ {
			for zb := 0; zb < cfg.ZBlocks; zb++ {
				r.curStep, r.curOct = step, o
				switch cfg.Mode {
				case Single:
					r.singleStep(p, step, o)
				case Multi:
					r.team.Step(p)
				case Partitioned:
					r.partMainStep(p, o)
				}
				step++
			}
			mpi.WaitAll(p, r.pending...)
			mpi.FreeAll(r.pending...)
			r.pending = r.pending[:0]
		}
	}
}

// singleStep performs one z-block in Single mode: blocking receives from
// upstream, compute, nonblocking sends downstream, which join the octant's
// pending sends.
func (r *sweepRank) singleStep(p *sim.Proc, step, o int) {
	cfg := r.cfg
	upX, upY, downX, downY := r.neighbours(o)
	size := int64(cfg.Threads) * cfg.BytesPerThread
	if upX >= 0 {
		r.comm.Recv(p, upX, stepTag(step, 0, 0))
	}
	if upY >= 0 {
		r.comm.Recv(p, upY, stepTag(step, 1, 0))
	}
	p.Sleep(r.place.ComputeTime(0, r.computeOf[step][0]))
	if downX >= 0 {
		r.pending = append(r.pending, r.comm.IsendBytes(p, downX, stepTag(step, 0, 0), size))
	}
	if downY >= 0 {
		r.pending = append(r.pending, r.comm.IsendBytes(p, downY, stepTag(step, 1, 0), size))
	}
}

// multiWorkerStep performs one z-block on one thread in Multi mode.
func (r *sweepRank) multiWorkerStep(tp *sim.Proc, t int) {
	cfg := r.cfg
	step, o := r.curStep, r.curOct
	upX, upY, downX, downY := r.neighbours(o)
	ep := r.comm.Endpoint(t)
	if upX >= 0 {
		ep.Recv(tp, upX, stepTag(step, 0, t))
	}
	if upY >= 0 {
		ep.Recv(tp, upY, stepTag(step, 1, t))
	}
	tp.Sleep(r.place.ComputeTime(t, r.computeOf[step][t]))
	var buf [2]*mpi.Request
	reqs := buf[:0]
	if downX >= 0 {
		reqs = append(reqs, ep.IsendBytes(tp, downX, stepTag(step, 0, t), cfg.BytesPerThread))
	}
	if downY >= 0 {
		reqs = append(reqs, ep.IsendBytes(tp, downY, stepTag(step, 1, t), cfg.BytesPerThread))
	}
	mpi.WaitAll(tp, reqs...)
	mpi.FreeAll(reqs...)
}

// Parrived polling uses exponential backoff: tight at first (low detection
// latency), capped so long wavefront-fill waits stay cheap to simulate.
const (
	partPollMin = 1 * sim.Microsecond
	partPollMax = 200 * sim.Microsecond
)

// pollParrived spins on Parrived with backoff until partition t lands.
func pollParrived(tp *sim.Proc, pr *mpi.PRequest, t int) {
	interval := partPollMin
	for !pr.Parrived(tp, t) {
		tp.Sleep(interval)
		if interval < partPollMax {
			interval *= 2
		}
	}
}

// partWorkerStep performs one z-block on one thread in Partitioned mode:
// poll the upstream partitions, compute, ready the downstream partitions.
func (r *sweepRank) partWorkerStep(tp *sim.Proc, t int) {
	step, o := r.curStep, r.curOct
	for axis := 0; axis < 2; axis++ {
		if pr := r.precv[o][axis]; pr != nil {
			pollParrived(tp, pr, t)
		}
	}
	tp.Sleep(r.place.ComputeTime(t, r.computeOf[step][t]))
	for axis := 0; axis < 2; axis++ {
		if pr := r.psend[o][axis]; pr != nil {
			pr.Pready(tp, t)
		}
	}
}

// partMainStep opens the partitioned epochs for one z-block, releases the
// workers, and closes the epochs when they finish.
func (r *sweepRank) partMainStep(p *sim.Proc, o int) {
	for axis := 0; axis < 2; axis++ {
		if pr := r.precv[o][axis]; pr != nil {
			pr.Start(p)
		}
		if pr := r.psend[o][axis]; pr != nil {
			pr.Start(p)
		}
	}
	r.team.Step(p)
	for axis := 0; axis < 2; axis++ {
		if pr := r.precv[o][axis]; pr != nil {
			pr.Wait(p)
		}
		if pr := r.psend[o][axis]; pr != nil {
			pr.Wait(p)
		}
	}
}

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

// HaloConfig describes a Halo3D run, after the Ember Halo3D motif: ranks
// form a periodic Nx x Ny x Nz torus and exchange one face-sized message
// with each of their six neighbours per step (the 7-point stencil). Threads
// form a ThreadsPerDim^3 cube inside each rank, so every face carries
// ThreadsPerDim^2 partitions, owned by the surface threads of that face —
// the paper's "each face has 2x2 threads" (8 threads, 4 partitions) and
// "each face of the cube has 16 partitions (4x4)" (64 threads) layouts.
type HaloConfig struct {
	// Nx, Ny, Nz define the periodic rank grid.
	Nx, Ny, Nz int
	// ThreadsPerDim is the per-rank thread cube edge; Threads() is its
	// cube. Forced to 1 in Single mode.
	ThreadsPerDim int
	// FaceBytes is the total message size per face (the figures' x axis);
	// it must be divisible by ThreadsPerDim^2.
	FaceBytes int64
	// Compute is the per-thread compute per step.
	Compute sim.Duration
	// Repeats is the number of halo-exchange steps.
	Repeats int
	// Mode selects single / multi / partitioned / persistent communication.
	Mode Mode
	// Platform bundles the hardware, noise, cache and partitioned-impl
	// settings (nil = the paper's Niagara/EDR defaults). ThreadMode is
	// derived from Mode, not the spec.
	Platform *platform.Spec
	// Shards runs the simulation on this many parallel event-loop shards
	// with conservative lookahead synchronization; 0 or 1 selects the
	// sequential reference kernel. Ranks are block-mapped onto shards
	// (cluster.BlockShards). Results are identical at any shard count.
	Shards int
	// ShardTrace, when non-nil, records one Chrome-trace span per executed
	// shard-window, one lane per shard. Host-timing dependent, so traced
	// configs are never cached (excluded from the cache key and forced to
	// run fresh, like core.Config.Trace).
	ShardTrace *trace.Recorder `json:"-"`
	// Topology overrides the network topology (nil = single-switch uniform
	// at the wire latency). With Shards > 1, a topology whose inter-group
	// latency is large — e.g. a netsim.DragonflyPlus with wings aligned to
	// the shard blocks — gives the largest lookahead and the best parallel
	// speedup.
	Topology netsim.Topology
	// Adaptive, when non-nil, estimates the motif's throughput from
	// repeated draws under derived noise seeds until the confidence
	// interval meets the target (see cells.go); nil keeps the fixed path
	// and its cache keys byte-identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
}

// threads returns the per-rank thread count (ThreadsPerDim cubed).
func (c *HaloConfig) threads() int {
	t := c.ThreadsPerDim
	return t * t * t
}

// facePartitions returns the partition count per face (ThreadsPerDim
// squared).
func (c *HaloConfig) facePartitions() int {
	return c.ThreadsPerDim * c.ThreadsPerDim
}

func (c HaloConfig) withDefaults() HaloConfig {
	if c.Repeats == 0 {
		c.Repeats = 4
	}
	c.Platform = c.Platform.Resolved()
	if c.Mode == Single || c.Mode == Persistent {
		c.ThreadsPerDim = 1
	}
	return c
}

// validate checks the configuration.
func (c *HaloConfig) validate() error {
	if c.Nx <= 0 || c.Ny <= 0 || c.Nz <= 0 {
		return fmt.Errorf("patterns: rank grid %dx%dx%d invalid", c.Nx, c.Ny, c.Nz)
	}
	if c.ThreadsPerDim <= 0 {
		return fmt.Errorf("patterns: ThreadsPerDim must be positive")
	}
	if c.FaceBytes <= 0 {
		return fmt.Errorf("patterns: FaceBytes must be positive")
	}
	if c.FaceBytes%int64(c.facePartitions()) != 0 {
		return fmt.Errorf("patterns: FaceBytes %d not divisible by %d face partitions", c.FaceBytes, c.facePartitions())
	}
	if c.Compute < 0 {
		return fmt.Errorf("patterns: negative Compute")
	}
	if c.Repeats <= 0 {
		return fmt.Errorf("patterns: Repeats must be positive")
	}
	if c.Shards < 0 {
		return fmt.Errorf("patterns: Shards = %d, must be nonnegative", c.Shards)
	}
	return nil
}

// The six faces, paired so face f exchanges with opposite(f) = f^1.
const (
	faceXMinus = iota
	faceXPlus
	faceYMinus
	faceYPlus
	faceZMinus
	faceZPlus
	numFaces
)

// opposite returns the face on the other side of the axis.
func opposite(f int) int { return f ^ 1 }

// haloRank is the per-rank state of a halo exchange on a periodic rank
// grid: Halo3D's six faces, or Halo2D's four edges, which the code below
// calls faces too.
type haloRank struct {
	mode      Mode
	repeats   int
	comm      *mpi.Comm
	place     *cluster.Placement
	computeOf [][]sim.Duration

	// faces is the face count; neighbour[f] is the rank across face f.
	faces     int
	neighbour [numFaces]int
	// faceBytes is one face's message; the threaded modes split it into
	// parts partitions.
	faceBytes int64
	parts     int
	// borders[t] lists the faces thread t borders (Multi and Partitioned
	// modes); every rank of a run shares one list.
	borders [][]border
	// motif names the rank's workers "<motif>/rank<r>/worker<t>".
	motif string

	// Partitioned-mode persistent requests per face.
	precv [numFaces]*mpi.PRequest
	psend [numFaces]*mpi.PRequest

	// Persistent-mode point-to-point requests per face.
	recvP [numFaces]*mpi.Request
	sendP [numFaces]*mpi.Request

	team    *omp.Team
	curStep int

	endAt sim.Time
}

// border is one face (or edge) of a rank that a thread borders, and the
// partition index the thread owns on it.
type border struct{ face, part int }

// faceBorders lists, for each thread of a d×d×d cube, the faces it borders
// and the partition index it owns on each. Interior threads (possible when
// d > 2) border no faces and only compute.
func faceBorders(d int) [][]border {
	out := make([][]border, d*d*d)
	for t := range out {
		a, b, c := t%d, (t/d)%d, t/(d*d)
		add := func(face, u, v int) {
			out[t] = append(out[t], border{face, v*d + u})
		}
		if a == 0 {
			add(faceXMinus, b, c)
		}
		if a == d-1 {
			add(faceXPlus, b, c)
		}
		if b == 0 {
			add(faceYMinus, a, c)
		}
		if b == d-1 {
			add(faceYPlus, a, c)
		}
		if c == 0 {
			add(faceZMinus, a, b)
		}
		if c == d-1 {
			add(faceZPlus, a, b)
		}
	}
	return out
}

// haloTag builds the Single/Multi tag for (step, face, partition) traffic,
// from the sender's perspective.
func haloTag(step, face, part int) int {
	return (step*numFaces+face)*1024 + part
}

// haloPartTag is the fixed tag of the persistent partitioned pair for a
// face, from the sender's perspective.
func haloPartTag(face int) int { return face + 1 }

// RunHalo3D executes the motif and returns its throughput result.
func RunHalo3D(cfg HaloConfig) (*Result, error) { return runHalo3D(nil, cfg) }

// runHalo3D is RunHalo3D with its simulation built on arena a.
func runHalo3D(a *sim.Arena, cfg HaloConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pf := cfg.Platform
	nRanks := cfg.Nx * cfg.Ny * cfg.Nz
	mcfg := mpi.DefaultConfig(nRanks)
	mcfg.Net = pf.Net
	mcfg.Machine = pf.Machine
	mcfg.Mem = memsim.Default(pf.Cache)
	configureMode(&mcfg, cfg.Mode, pf.Impl)
	w, runSim, shardStats, err := buildWorld(a, cfg.Shards, nRanks, mcfg, cfg.Topology, cfg.ShardTrace)
	if err != nil {
		return nil, err
	}

	ranks := make([]*haloRank, nRanks)
	borders := faceBorders(cfg.ThreadsPerDim)
	wrap := func(v, n int) int { return ((v % n) + n) % n }
	at := func(x, y, z int) int {
		return wrap(z, cfg.Nz)*cfg.Nx*cfg.Ny + wrap(y, cfg.Ny)*cfg.Nx + wrap(x, cfg.Nx)
	}
	for id := range ranks {
		r := newHaloRank(a, w.Comm(id), pf, cfg.Mode, len(borders), cfg.Repeats, cfg.Compute)
		x, y, z := id%cfg.Nx, (id/cfg.Nx)%cfg.Ny, id/(cfg.Nx*cfg.Ny)
		r.neighbour = [numFaces]int{
			faceXMinus: at(x-1, y, z), faceXPlus: at(x+1, y, z),
			faceYMinus: at(x, y-1, z), faceYPlus: at(x, y+1, z),
			faceZMinus: at(x, y, z-1), faceZPlus: at(x, y, z+1),
		}
		r.faces, r.faceBytes, r.parts, r.borders, r.motif = numFaces, cfg.FaceBytes, cfg.facePartitions(), borders, "halo"
		ranks[id] = r
	}
	res, err := runHalo(w, runSim, ranks)
	if err != nil {
		return nil, fmt.Errorf("patterns: halo3d simulation failed: %w", err)
	}
	if shardStats != nil {
		res.Shard = shardStats()
	}
	return res, nil
}

// newHaloRank builds a rank's state on comm: its placement and the compute
// time of every thread in every step, drawn from a noise model seeded for
// the rank.
func newHaloRank(a *sim.Arena, comm *mpi.Comm, pf *platform.Spec, mode Mode, threads, repeats int, compute sim.Duration) *haloRank {
	place := cluster.Place(pf.Machine, threads)
	comm.SetPlacement(place)
	nm := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed+int64(comm.Rank()), a)
	r := &haloRank{mode: mode, repeats: repeats, comm: comm, place: place, computeOf: make([][]sim.Duration, repeats)}
	for st := range r.computeOf {
		r.computeOf[st] = nm.Region(threads, compute)
	}
	return r
}

// runHalo launches one proc per rank on w — set up, meet, run the steps,
// meet again — drives the simulation and totals the result, timed from the
// first meeting to the last rank done.
func runHalo(w *mpi.World, runSim func() error, ranks []*haloRank) (*Result, error) {
	var startAt sim.Time
	w.Launch(ranks[0].motif, func(c *mpi.Comm, p *sim.Proc) {
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
		return nil, err
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
	return res, nil
}

// setup creates the persistent requests and worker threads.
func (r *haloRank) setup(p *sim.Proc) {
	if r.mode == Partitioned {
		partBytes := r.faceBytes / int64(r.parts)
		for f := 0; f < r.faces; f++ {
			r.psend[f] = r.comm.PsendInit(p, r.neighbour[f], haloPartTag(f), r.parts, partBytes)
			// The message landing on our face f was sent through the
			// neighbour's opposite face.
			r.precv[f] = r.comm.PrecvInit(p, r.neighbour[f], haloPartTag(opposite(f)), r.parts, partBytes)
		}
	}
	if r.mode == Persistent {
		// Fixed tags are safe: every rank Waits both requests of a face
		// before restarting them, so at most one transfer per (peer, tag)
		// pair is in flight and FIFO matching keeps steps aligned.
		for f := 0; f < r.faces; f++ {
			r.sendP[f] = r.comm.SendInitBytes(p, r.neighbour[f], haloPartTag(f), r.faceBytes)
			r.recvP[f] = r.comm.RecvInit(p, r.neighbour[f], haloPartTag(opposite(f)))
		}
	}
	if r.mode == Multi || r.mode == Partitioned {
		r.team = omp.NewTeam(p.Scheduler(), len(r.borders), r.repeats, r)
	}
}

// Thread runs worker t's part of the current step: the rank is its team's
// body.
func (r *haloRank) Thread(tp *sim.Proc, t int) {
	if r.mode == Multi {
		r.multiWorkerStep(tp, t)
	} else {
		r.partWorkerStep(tp, t)
	}
}

func (r *haloRank) ThreadName(t int) string {
	return fmt.Sprintf("%s/rank%d/worker%d", r.motif, r.comm.Rank(), t)
}

// run drives the exchange loop on the rank's main proc.
func (r *haloRank) run(p *sim.Proc) {
	for step := 0; step < r.repeats; step++ {
		r.curStep = step
		switch r.mode {
		case Single:
			r.singleStep(p, step)
		case Persistent:
			r.persistentStep(p, step)
		case Multi:
			r.team.Step(p)
		case Partitioned:
			for f := 0; f < r.faces; f++ {
				r.precv[f].Start(p)
				r.psend[f].Start(p)
			}
			r.team.Step(p)
			for f := 0; f < r.faces; f++ {
				r.precv[f].Wait(p)
				r.psend[f].Wait(p)
			}
		}
	}
}

// singleStep exchanges whole faces with plain point-to-point: post all the
// receives, compute, send every face, complete everything.
func (r *haloRank) singleStep(p *sim.Proc, step int) {
	var buf [2 * numFaces]*mpi.Request
	reqs := buf[:0]
	for f := 0; f < r.faces; f++ {
		reqs = append(reqs, r.comm.Irecv(p, r.neighbour[f], haloTag(step, opposite(f), 0)))
	}
	p.Sleep(r.place.ComputeTime(0, r.computeOf[step][0]))
	for f := 0; f < r.faces; f++ {
		reqs = append(reqs, r.comm.IsendBytes(p, r.neighbour[f], haloTag(step, f, 0), r.faceBytes))
	}
	mpi.WaitAll(p, reqs...)
	mpi.FreeAll(reqs...)
}

// persistentStep is singleStep over pre-initialized persistent requests:
// restart the receives, compute, restart the sends, complete all.
func (r *haloRank) persistentStep(p *sim.Proc, step int) {
	for f := 0; f < r.faces; f++ {
		r.recvP[f].Start(p)
	}
	p.Sleep(r.place.ComputeTime(0, r.computeOf[step][0]))
	var buf [2 * numFaces]*mpi.Request
	reqs := buf[:0]
	for f := 0; f < r.faces; f++ {
		r.sendP[f].Start(p)
		reqs = append(reqs, r.sendP[f], r.recvP[f])
	}
	mpi.WaitAll(p, reqs...)
}

// multiWorkerStep: a surface thread exchanges its partition of every face it
// borders; interior threads only compute.
func (r *haloRank) multiWorkerStep(tp *sim.Proc, t int) {
	step := r.curStep
	partBytes := r.faceBytes / int64(r.parts)
	ep := r.comm.Endpoint(t)
	var buf [2 * numFaces]*mpi.Request
	reqs := buf[:0]
	for _, b := range r.borders[t] {
		reqs = append(reqs, ep.Irecv(tp, r.neighbour[b.face], haloTag(step, opposite(b.face), b.part)))
	}
	tp.Sleep(r.place.ComputeTime(t, r.computeOf[step][t]))
	for _, b := range r.borders[t] {
		reqs = append(reqs, ep.IsendBytes(tp, r.neighbour[b.face], haloTag(step, b.face, b.part), partBytes))
	}
	mpi.WaitAll(tp, reqs...)
	mpi.FreeAll(reqs...)
}

// partWorkerStep: compute, ready the owned partitions, then poll the
// matching inbound partitions.
func (r *haloRank) partWorkerStep(tp *sim.Proc, t int) {
	step := r.curStep
	tp.Sleep(r.place.ComputeTime(t, r.computeOf[step][t]))
	for _, b := range r.borders[t] {
		r.psend[b.face].Pready(tp, b.part)
	}
	for _, b := range r.borders[t] {
		pollParrived(tp, r.precv[b.face], b.part)
	}
}

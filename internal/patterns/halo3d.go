package patterns

import (
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
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
	// shard-window on per-worker lanes. Host-timing dependent, so traced
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

// Threads returns the per-rank thread count (ThreadsPerDim cubed).
func (c *HaloConfig) Threads() int {
	t := c.ThreadsPerDim
	return t * t * t
}

// FacePartitions returns the partition count per face (ThreadsPerDim
// squared).
func (c *HaloConfig) FacePartitions() int {
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

// Validate checks the configuration.
func (c *HaloConfig) Validate() error {
	if c.Nx <= 0 || c.Ny <= 0 || c.Nz <= 0 {
		return fmt.Errorf("patterns: rank grid %dx%dx%d invalid", c.Nx, c.Ny, c.Nz)
	}
	if c.ThreadsPerDim <= 0 {
		return fmt.Errorf("patterns: ThreadsPerDim must be positive")
	}
	if c.FaceBytes <= 0 {
		return fmt.Errorf("patterns: FaceBytes must be positive")
	}
	if c.FaceBytes%int64(c.FacePartitions()) != 0 {
		return fmt.Errorf("patterns: FaceBytes %d not divisible by %d face partitions", c.FaceBytes, c.FacePartitions())
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

// haloRank is the per-rank state of a Halo3D run.
type haloRank struct {
	cfg     HaloConfig
	comm    *mpi.Comm
	x, y, z int
	place   *cluster.Placement

	computeOf [][]sim.Duration

	// neighbour[f] is the rank across face f (periodic torus).
	neighbour [numFaces]int
	// borders[t] lists the faces thread t borders (Multi and Partitioned
	// modes), computed at set-up.
	borders [][]border

	// Partitioned-mode persistent requests per face.
	precv [numFaces]*mpi.PRequest
	psend [numFaces]*mpi.PRequest

	// Persistent-mode point-to-point requests per face.
	recvP [numFaces]*mpi.Request
	sendP [numFaces]*mpi.Request

	startBar, doneBar *sim.Barrier
	curStep           int

	endAt sim.Time
}

// threadCoord decomposes thread index t into its cube coordinates.
func (r *haloRank) threadCoord(t int) (a, b, c int) {
	d := r.cfg.ThreadsPerDim
	return t % d, (t / d) % d, t / (d * d)
}

// border is one face (or edge) of a rank that a thread borders, and the
// partition index the thread owns on it.
type border struct{ face, part int }

// facesOf lists the faces thread t borders and the partition index it owns
// on each face. Interior threads (possible when ThreadsPerDim > 2) border
// no faces and only compute.
func (r *haloRank) facesOf(t int) (faces []border) {
	d := r.cfg.ThreadsPerDim
	a, b, c := r.threadCoord(t)
	add := func(face, u, v int) {
		faces = append(faces, border{face, v*d + u})
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
	return faces
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

// runHalo3D is RunHalo3D with a sequential simulation built on arena a.
func runHalo3D(a *sim.Arena, cfg HaloConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Shards > 1 {
		a = nil // a shard group builds its own schedulers (see buildWorld)
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
	var startAt sim.Time
	for id := range ranks {
		comm := w.Comm(id)
		place := cluster.Place(pf.Machine, cfg.Threads())
		comm.SetPlacement(place)
		nm := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed+int64(id), a)
		r := &haloRank{
			cfg:   cfg,
			comm:  comm,
			x:     id % cfg.Nx,
			y:     (id / cfg.Nx) % cfg.Ny,
			z:     id / (cfg.Nx * cfg.Ny),
			place: place,
		}
		wrap := func(v, n int) int { return ((v % n) + n) % n }
		at := func(x, y, z int) int {
			return wrap(z, cfg.Nz)*cfg.Nx*cfg.Ny + wrap(y, cfg.Ny)*cfg.Nx + wrap(x, cfg.Nx)
		}
		r.neighbour[faceXMinus] = at(r.x-1, r.y, r.z)
		r.neighbour[faceXPlus] = at(r.x+1, r.y, r.z)
		r.neighbour[faceYMinus] = at(r.x, r.y-1, r.z)
		r.neighbour[faceYPlus] = at(r.x, r.y+1, r.z)
		r.neighbour[faceZMinus] = at(r.x, r.y, r.z-1)
		r.neighbour[faceZPlus] = at(r.x, r.y, r.z+1)
		r.computeOf = make([][]sim.Duration, cfg.Repeats)
		for st := range r.computeOf {
			r.computeOf[st] = nm.Region(cfg.Threads(), cfg.Compute)
		}
		ranks[id] = r
	}
	w.Launch("halo", func(c *mpi.Comm, p *sim.Proc) {
		r := ranks[c.WorldRank()]
		r.setup(p)
		c.Barrier(p)
		if c.WorldRank() == 0 {
			startAt = p.Now()
		}
		r.run(p)
		c.Barrier(p)
		r.endAt = p.Now()
	})
	if err := runSim(); err != nil {
		return nil, fmt.Errorf("patterns: halo3d simulation failed: %w", err)
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

// setup creates the persistent partitioned pairs and worker threads.
func (r *haloRank) setup(p *sim.Proc) {
	cfg := r.cfg
	if cfg.Mode == Partitioned {
		parts := cfg.FacePartitions()
		partBytes := cfg.FaceBytes / int64(parts)
		for f := 0; f < numFaces; f++ {
			r.psend[f] = r.comm.PsendInit(p, r.neighbour[f], haloPartTag(f), parts, partBytes)
			// The message landing on our face f was sent through the
			// neighbour's opposite face.
			r.precv[f] = r.comm.PrecvInit(p, r.neighbour[f], haloPartTag(opposite(f)), parts, partBytes)
		}
	}
	if cfg.Mode == Persistent {
		// Fixed tags are safe: every rank Waits both requests of a face
		// before restarting them, so at most one transfer per (peer, tag)
		// pair is in flight and FIFO matching keeps steps aligned.
		for f := 0; f < numFaces; f++ {
			r.sendP[f] = r.comm.SendInitBytes(p, r.neighbour[f], haloPartTag(f), cfg.FaceBytes)
			r.recvP[f] = r.comm.RecvInit(p, r.neighbour[f], haloPartTag(opposite(f)))
		}
	}
	if cfg.Mode == Multi || cfg.Mode == Partitioned {
		r.spawnWorkers(p)
	}
}

// spawnWorkers starts the long-lived thread procs.
func (r *haloRank) spawnWorkers(p *sim.Proc) {
	cfg := r.cfg
	s := p.Scheduler()
	n := cfg.Threads()
	r.startBar = sim.NewBarrier(n + 1)
	r.doneBar = sim.NewBarrier(n + 1)
	r.borders = make([][]border, n)
	for t := 0; t < n; t++ {
		t := t
		r.borders[t] = r.facesOf(t)
		s.Spawn(fmt.Sprintf("halo/rank%d/worker%d", r.comm.Rank(), t), func(tp *sim.Proc) {
			for st := 0; st < cfg.Repeats; st++ {
				r.startBar.Await(tp)
				switch cfg.Mode {
				case Multi:
					r.multiWorkerStep(tp, t)
				case Partitioned:
					r.partWorkerStep(tp, t)
				}
				r.doneBar.Await(tp)
			}
		})
	}
}

// run drives the exchange loop on the rank's main proc.
func (r *haloRank) run(p *sim.Proc) {
	cfg := r.cfg
	for step := 0; step < cfg.Repeats; step++ {
		r.curStep = step
		switch cfg.Mode {
		case Single:
			r.singleStep(p, step)
		case Persistent:
			r.persistentStep(p, step)
		case Multi:
			r.startBar.Await(p)
			r.doneBar.Await(p)
		case Partitioned:
			for f := 0; f < numFaces; f++ {
				r.precv[f].Start(p)
				r.psend[f].Start(p)
			}
			r.startBar.Await(p)
			r.doneBar.Await(p)
			for f := 0; f < numFaces; f++ {
				r.precv[f].Wait(p)
				r.psend[f].Wait(p)
			}
		}
	}
}

// singleStep exchanges whole faces with plain point-to-point: post all six
// receives, compute, send all six faces, complete everything.
func (r *haloRank) singleStep(p *sim.Proc, step int) {
	cfg := r.cfg
	var buf [2 * numFaces]*mpi.Request
	reqs := buf[:0]
	for f := 0; f < numFaces; f++ {
		reqs = append(reqs, r.comm.Irecv(p, r.neighbour[f], haloTag(step, opposite(f), 0)))
	}
	p.Sleep(r.place.ComputeTime(0, r.computeOf[step][0]))
	for f := 0; f < numFaces; f++ {
		reqs = append(reqs, r.comm.IsendBytes(p, r.neighbour[f], haloTag(step, f, 0), cfg.FaceBytes))
	}
	mpi.WaitAll(p, reqs...)
	mpi.FreeAll(reqs...)
}

// persistentStep is singleStep over pre-initialized persistent requests:
// restart the six receives, compute, restart the six sends, complete all.
func (r *haloRank) persistentStep(p *sim.Proc, step int) {
	for f := 0; f < numFaces; f++ {
		r.recvP[f].Start(p)
	}
	p.Sleep(r.place.ComputeTime(0, r.computeOf[step][0]))
	var buf [2 * numFaces]*mpi.Request
	reqs := buf[:0]
	for f := 0; f < numFaces; f++ {
		r.sendP[f].Start(p)
		reqs = append(reqs, r.sendP[f], r.recvP[f])
	}
	mpi.WaitAll(p, reqs...)
}

// multiWorkerStep: a surface thread exchanges its partition of every face it
// borders; interior threads only compute.
func (r *haloRank) multiWorkerStep(tp *sim.Proc, t int) {
	cfg := r.cfg
	step := r.curStep
	partBytes := cfg.FaceBytes / int64(cfg.FacePartitions())
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

package patterns

import (
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Halo2DConfig describes a 5-point 2-D halo exchange (the paper's Figure 2b
// illustration): ranks form a periodic Nx x Ny grid and exchange one
// edge-sized message with each of their four neighbours per step. Threads
// form a ThreadsPerDim^2 square inside each rank, so every edge carries
// ThreadsPerDim partitions owned by the border threads of that edge.
type Halo2DConfig struct {
	// Nx, Ny define the periodic rank grid.
	Nx, Ny int
	// ThreadsPerDim is the per-rank thread square edge; Threads() is its
	// square. Forced to 1 in Single mode.
	ThreadsPerDim int
	// EdgeBytes is the total message size per edge; it must be divisible
	// by ThreadsPerDim.
	EdgeBytes int64
	// Compute is the per-thread compute per step.
	Compute sim.Duration
	// Repeats is the number of halo-exchange steps.
	Repeats int
	// Mode selects single / multi / partitioned communication.
	Mode Mode
	// Platform bundles the hardware, noise, cache and partitioned-impl
	// settings (nil = the paper's Niagara/EDR defaults). ThreadMode is
	// derived from Mode, not the spec.
	Platform *platform.Spec
	// Adaptive, when non-nil, estimates the motif's throughput from
	// repeated draws under derived noise seeds until the confidence
	// interval meets the target (see cells.go); nil keeps the fixed path
	// and its cache keys byte-identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
}

// Threads returns the per-rank thread count.
func (c *Halo2DConfig) Threads() int { return c.ThreadsPerDim * c.ThreadsPerDim }

func (c Halo2DConfig) withDefaults() Halo2DConfig {
	if c.Repeats == 0 {
		c.Repeats = 4
	}
	c.Platform = c.Platform.Resolved()
	if c.Mode == Single {
		c.ThreadsPerDim = 1
	}
	return c
}

// Validate checks the configuration.
func (c *Halo2DConfig) Validate() error {
	if c.Nx <= 0 || c.Ny <= 0 {
		return fmt.Errorf("patterns: rank grid %dx%d invalid", c.Nx, c.Ny)
	}
	if c.ThreadsPerDim <= 0 {
		return fmt.Errorf("patterns: ThreadsPerDim must be positive")
	}
	if c.EdgeBytes <= 0 {
		return fmt.Errorf("patterns: EdgeBytes must be positive")
	}
	if c.EdgeBytes%int64(c.ThreadsPerDim) != 0 {
		return fmt.Errorf("patterns: EdgeBytes %d not divisible by %d edge partitions", c.EdgeBytes, c.ThreadsPerDim)
	}
	if c.Compute < 0 {
		return fmt.Errorf("patterns: negative Compute")
	}
	if c.Repeats <= 0 {
		return fmt.Errorf("patterns: Repeats must be positive")
	}
	return nil
}

// The four edges, paired so edge e exchanges with opposite(e) = e^1.
const (
	edgeWest = iota
	edgeEast
	edgeSouth
	edgeNorth
	numEdges
)

// halo2dRank is the per-rank state of a Halo2D run.
type halo2dRank struct {
	cfg   Halo2DConfig
	comm  *mpi.Comm
	x, y  int
	place *cluster.Placement

	computeOf [][]sim.Duration
	neighbour [numEdges]int

	precv [numEdges]*mpi.PRequest
	psend [numEdges]*mpi.PRequest
	// borders[t] lists the edges thread t borders, computed at set-up.
	borders [][]border

	startBar, doneBar *sim.Barrier
	curStep           int

	endAt sim.Time
}

// edgesOf lists the edges thread t borders and the partition it owns on
// each: thread (a,b) owns partition b of the west/east edges when a is on
// that border, and partition a of the south/north edges.
func (r *halo2dRank) edgesOf(t int) (edges []border) {
	d := r.cfg.ThreadsPerDim
	a, b := t%d, t/d
	if a == 0 {
		edges = append(edges, border{edgeWest, b})
	}
	if a == d-1 {
		edges = append(edges, border{edgeEast, b})
	}
	if b == 0 {
		edges = append(edges, border{edgeSouth, a})
	}
	if b == d-1 {
		edges = append(edges, border{edgeNorth, a})
	}
	return edges
}

// RunHalo2D executes the motif and returns its throughput result.
func RunHalo2D(cfg Halo2DConfig) (*Result, error) { return runHalo2D(nil, cfg) }

// runHalo2D is RunHalo2D with its simulation built on arena a.
func runHalo2D(a *sim.Arena, cfg Halo2DConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := a.New()
	pf := cfg.Platform
	nRanks := cfg.Nx * cfg.Ny
	mcfg := mpi.DefaultConfig(nRanks)
	mcfg.Net = pf.Net
	mcfg.Machine = pf.Machine
	mcfg.Mem = memsim.Default(pf.Cache)
	configureMode(&mcfg, cfg.Mode, pf.Impl)
	w := mpi.NewWorld(s, mcfg)

	ranks := make([]*halo2dRank, nRanks)
	var startAt sim.Time
	for id := range ranks {
		id := id
		comm := w.Comm(id)
		place := cluster.Place(pf.Machine, cfg.Threads())
		comm.SetPlacement(place)
		nm := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed+int64(id), a)
		r := &halo2dRank{
			cfg:   cfg,
			comm:  comm,
			x:     id % cfg.Nx,
			y:     id / cfg.Nx,
			place: place,
		}
		wrap := func(v, n int) int { return ((v % n) + n) % n }
		at := func(x, y int) int { return wrap(y, cfg.Ny)*cfg.Nx + wrap(x, cfg.Nx) }
		r.neighbour[edgeWest] = at(r.x-1, r.y)
		r.neighbour[edgeEast] = at(r.x+1, r.y)
		r.neighbour[edgeSouth] = at(r.x, r.y-1)
		r.neighbour[edgeNorth] = at(r.x, r.y+1)
		r.computeOf = make([][]sim.Duration, cfg.Repeats)
		for st := range r.computeOf {
			r.computeOf[st] = nm.Region(cfg.Threads(), cfg.Compute)
		}
		ranks[id] = r
		s.Spawn(fmt.Sprintf("halo2d/rank%d", id), func(p *sim.Proc) {
			r.setup(p)
			comm.Barrier(p)
			if id == 0 {
				startAt = p.Now()
			}
			r.run(p)
			comm.Barrier(p)
			r.endAt = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("patterns: halo2d simulation failed: %w", err)
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

func (r *halo2dRank) setup(p *sim.Proc) {
	cfg := r.cfg
	if cfg.Mode == Partitioned {
		parts := cfg.ThreadsPerDim
		partBytes := cfg.EdgeBytes / int64(parts)
		for e := 0; e < numEdges; e++ {
			r.psend[e] = r.comm.PsendInit(p, r.neighbour[e], haloPartTag(e), parts, partBytes)
			r.precv[e] = r.comm.PrecvInit(p, r.neighbour[e], haloPartTag(opposite(e)), parts, partBytes)
		}
	}
	if cfg.Mode != Single {
		r.spawnWorkers(p)
	}
}

func (r *halo2dRank) spawnWorkers(p *sim.Proc) {
	cfg := r.cfg
	s := p.Scheduler()
	n := cfg.Threads()
	r.startBar = sim.NewBarrier(n + 1)
	r.doneBar = sim.NewBarrier(n + 1)
	r.borders = make([][]border, n)
	for t := 0; t < n; t++ {
		t := t
		r.borders[t] = r.edgesOf(t)
		s.Spawn(fmt.Sprintf("halo2d/rank%d/worker%d", r.comm.Rank(), t), func(tp *sim.Proc) {
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

func (r *halo2dRank) run(p *sim.Proc) {
	cfg := r.cfg
	for step := 0; step < cfg.Repeats; step++ {
		r.curStep = step
		switch cfg.Mode {
		case Single:
			r.singleStep(p, step)
		case Multi:
			r.startBar.Await(p)
			r.doneBar.Await(p)
		case Partitioned:
			for e := 0; e < numEdges; e++ {
				r.precv[e].Start(p)
				r.psend[e].Start(p)
			}
			r.startBar.Await(p)
			r.doneBar.Await(p)
			for e := 0; e < numEdges; e++ {
				r.precv[e].Wait(p)
				r.psend[e].Wait(p)
			}
		}
	}
}

func (r *halo2dRank) singleStep(p *sim.Proc, step int) {
	cfg := r.cfg
	var buf [2 * numEdges]*mpi.Request
	reqs := buf[:0]
	for e := 0; e < numEdges; e++ {
		reqs = append(reqs, r.comm.Irecv(p, r.neighbour[e], haloTag(step, opposite(e), 0)))
	}
	p.Sleep(r.place.ComputeTime(0, r.computeOf[step][0]))
	for e := 0; e < numEdges; e++ {
		reqs = append(reqs, r.comm.IsendBytes(p, r.neighbour[e], haloTag(step, e, 0), cfg.EdgeBytes))
	}
	mpi.WaitAll(p, reqs...)
	mpi.FreeAll(reqs...)
}

func (r *halo2dRank) multiWorkerStep(tp *sim.Proc, t int) {
	cfg := r.cfg
	step := r.curStep
	partBytes := cfg.EdgeBytes / int64(cfg.ThreadsPerDim)
	ep := r.comm.Endpoint(t)
	var buf [2 * numEdges]*mpi.Request
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

func (r *halo2dRank) partWorkerStep(tp *sim.Proc, t int) {
	step := r.curStep
	tp.Sleep(r.place.ComputeTime(t, r.computeOf[step][t]))
	for _, b := range r.borders[t] {
		r.psend[b.face].Pready(tp, b.part)
	}
	for _, b := range r.borders[t] {
		pollParrived(tp, r.precv[b.face], b.part)
	}
}

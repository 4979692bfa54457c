package patterns

import (
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/omp"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// IncastConfig describes an incast motif (after Ember's incast pattern):
// every rank except the sink sends one message (or one partitioned epoch)
// per step to rank 0. Incast stresses the receiver: with partitioned
// communication the per-partition receive-side processing of many senders
// serializes on the sink's NIC, which is where the partitioned overhead
// story changes compared to the two-rank benchmarks.
type IncastConfig struct {
	// Senders is the number of sending ranks (world size is Senders+1).
	Senders int
	// Threads is the thread/partition count per sender; forced to 1 in
	// Single mode.
	Threads int
	// BytesPerThread is each thread's contribution to its rank's message.
	BytesPerThread int64
	// Compute is the per-thread compute per step.
	Compute sim.Duration
	// Repeats is the number of incast rounds.
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

func (c IncastConfig) withDefaults() IncastConfig {
	if c.Repeats == 0 {
		c.Repeats = 4
	}
	c.Platform = c.Platform.Resolved()
	if c.Mode == Single {
		c.Threads = 1
	}
	return c
}

// validate checks the configuration.
func (c *IncastConfig) validate() error {
	if c.Senders <= 0 {
		return fmt.Errorf("patterns: Senders must be positive")
	}
	if c.Threads <= 0 {
		return fmt.Errorf("patterns: Threads must be positive")
	}
	if c.BytesPerThread <= 0 {
		return fmt.Errorf("patterns: BytesPerThread must be positive")
	}
	if c.Compute < 0 || c.Repeats <= 0 {
		return fmt.Errorf("patterns: negative Compute or non-positive Repeats")
	}
	return nil
}

// runIncast executes the motif on a simulation built on arena a.
func runIncast(a *sim.Arena, cfg IncastConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := a.New()
	pf := cfg.Platform
	nRanks := cfg.Senders + 1
	mcfg := mpi.DefaultConfig(nRanks)
	mcfg.Net = pf.Net
	mcfg.Machine = pf.Machine
	mcfg.Mem = memsim.Default(pf.Cache)
	configureMode(&mcfg, cfg.Mode, pf.Impl)
	w := mpi.NewWorld(s, mcfg)

	var startAt, maxEnd sim.Time
	ends := make([]sim.Time, nRanks)
	for id := 0; id < nRanks; id++ {
		id := id
		comm := w.Comm(id)
		place := cluster.Place(pf.Machine, cfg.Threads)
		comm.SetPlacement(place)
		nm := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed+int64(id), a)
		s.Spawn(fmt.Sprintf("incast/rank%d", id), func(p *sim.Proc) {
			if id == 0 {
				startAt = runIncastSink(p, comm, cfg)
			} else {
				runIncastSender(p, comm, cfg, nm, place)
			}
			ends[id] = p.Now()
		})
	}
	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("patterns: incast simulation failed: %w", err)
	}
	res := &Result{}
	for id := 0; id < nRanks; id++ {
		st := w.Comm(id).NICStats()
		res.PayloadBytes += st.Bytes
		res.Messages += st.Messages
		if ends[id] > maxEnd {
			maxEnd = ends[id]
		}
	}
	res.Elapsed = maxEnd.Sub(startAt)
	return res, nil
}

// incastThreads is what a sender's threads do after computing, one body for
// every round: send their share (Multi) or ready their partition
// (Partitioned).
type incastThreads struct {
	comm  *mpi.Comm
	bytes int64
	psend *mpi.PRequest
	rep   int
}

func (b *incastThreads) Thread(tp *sim.Proc, t int) {
	if b.psend != nil {
		b.psend.Pready(tp, t)
		return
	}
	tag := b.rep*1024 + b.comm.Rank()*64 + t
	b.comm.Endpoint(t).SendBytes(tp, 0, tag, b.bytes)
}

func (b *incastThreads) ThreadName(t int) string { return fmt.Sprintf("incast/w%d", t) }

// runIncastSender computes and sends toward the sink each round.
func runIncastSender(p *sim.Proc, comm *mpi.Comm, cfg IncastConfig, nm *noise.Model, place *cluster.Placement) {
	threads := &incastThreads{comm: comm, bytes: cfg.BytesPerThread}
	if cfg.Mode == Partitioned {
		threads.psend = comm.PsendInit(p, 0, comm.Rank(), cfg.Threads, cfg.BytesPerThread)
	}
	compute := omp.NewCompute(place, nm, cfg.Compute, threads)
	comm.Barrier(p)
	for rep := 0; rep < cfg.Repeats; rep++ {
		threads.rep = rep
		switch cfg.Mode {
		case Single:
			compute.Draw()
			p.Sleep(compute.Times[0])
			comm.SendBytes(p, 0, rep*1024+comm.Rank(), cfg.BytesPerThread)
		case Multi:
			omp.ComputeRegion(p, compute)
		case Partitioned:
			threads.psend.Start(p)
			omp.ComputeRegion(p, compute)
			threads.psend.Wait(p)
		}
	}
	comm.Barrier(p)
}

// runIncastSink receives every sender's contribution each round and
// returns when it left the opening barrier, where timing starts.
func runIncastSink(p *sim.Proc, comm *mpi.Comm, cfg IncastConfig) sim.Time {
	precvs := make([]*mpi.PRequest, 0, cfg.Senders)
	if cfg.Mode == Partitioned {
		for src := 1; src <= cfg.Senders; src++ {
			precvs = append(precvs, comm.PrecvInit(p, src, src, cfg.Threads, cfg.BytesPerThread))
		}
	}
	comm.Barrier(p)
	startAt := p.Now()
	var reqs []*mpi.Request
	for rep := 0; rep < cfg.Repeats; rep++ {
		reqs = reqs[:0]
		switch cfg.Mode {
		case Single:
			for src := 1; src <= cfg.Senders; src++ {
				reqs = append(reqs, comm.Irecv(p, src, rep*1024+src))
			}
		case Multi:
			for src := 1; src <= cfg.Senders; src++ {
				for t := 0; t < cfg.Threads; t++ {
					reqs = append(reqs, comm.Irecv(p, src, rep*1024+src*64+t))
				}
			}
		case Partitioned:
			for _, pr := range precvs {
				pr.Start(p)
			}
			for _, pr := range precvs {
				pr.Wait(p)
			}
		}
		mpi.WaitAll(p, reqs...)
		mpi.FreeAll(reqs...)
	}
	comm.Barrier(p)
	return startAt
}

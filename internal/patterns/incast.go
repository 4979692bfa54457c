package patterns

import (
	"fmt"

	"partmb/internal/cluster"
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
	// Mode selects single / multi / partitioned communication; persistent
	// is rejected.
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
	if c.Mode == Persistent {
		return fmt.Errorf("patterns: incast does not support persistent mode (halo3d and halo2d only)")
	}
	return nil
}

// runIncast executes the motif on a simulation built on arena a.
func runIncast(a *sim.Arena, cfg IncastConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	f := frame{name: "incast", procs: "incast", ranks: cfg.Senders + 1, threads: cfg.Threads,
		mode: cfg.Mode, pf: cfg.Platform}
	return f.run(a, func(comm *mpi.Comm, place *cluster.Placement, nm *noise.Model) rankProgram {
		if comm.Rank() == 0 {
			return &incastSink{cfg: &cfg, comm: comm}
		}
		s := &incastSender{cfg: &cfg, comm: comm}
		s.compute = omp.NewCompute(place, nm, cfg.Compute, s)
		return s
	})
}

// incastSender computes and sends toward the sink each round. Its threads
// send their share after computing (Multi) or ready their partition
// (Partitioned).
type incastSender struct {
	cfg     *IncastConfig
	comm    *mpi.Comm
	compute *omp.Compute
	psend   *mpi.PRequest
	rep     int
}

func (s *incastSender) setup(p *sim.Proc) {
	if s.cfg.Mode == Partitioned {
		s.psend = s.comm.PsendInit(p, 0, s.comm.Rank(), s.cfg.Threads, s.cfg.BytesPerThread)
	}
}

func (s *incastSender) run(p *sim.Proc) {
	for rep := 0; rep < s.cfg.Repeats; rep++ {
		s.rep = rep
		switch s.cfg.Mode {
		case Single:
			s.compute.Draw()
			p.Sleep(s.compute.Times[0])
			s.comm.SendBytes(p, 0, rep*1024+s.comm.Rank(), s.cfg.BytesPerThread)
		case Multi:
			omp.ComputeRegion(p, s.compute)
		case Partitioned:
			s.psend.Start(p)
			omp.ComputeRegion(p, s.compute)
			s.psend.Wait(p)
		}
	}
}

func (s *incastSender) Thread(tp *sim.Proc, t int) {
	if s.psend != nil {
		s.psend.Pready(tp, t)
		return
	}
	tag := s.rep*1024 + s.comm.Rank()*64 + t
	s.comm.Endpoint(t).SendBytes(tp, 0, tag, s.cfg.BytesPerThread)
}

func (s *incastSender) ThreadName(t int) string { return fmt.Sprintf("incast/w%d", t) }

// incastSink receives every sender's contribution each round.
type incastSink struct {
	cfg    *IncastConfig
	comm   *mpi.Comm
	precvs []*mpi.PRequest
}

func (k *incastSink) setup(p *sim.Proc) {
	if k.cfg.Mode == Partitioned {
		for src := 1; src <= k.cfg.Senders; src++ {
			k.precvs = append(k.precvs, k.comm.PrecvInit(p, src, src, k.cfg.Threads, k.cfg.BytesPerThread))
		}
	}
}

func (k *incastSink) run(p *sim.Proc) {
	cfg, comm := k.cfg, k.comm
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
			for _, pr := range k.precvs {
				pr.Start(p)
			}
			for _, pr := range k.precvs {
				pr.Wait(p)
			}
		}
		mpi.WaitAll(p, reqs...)
		mpi.FreeAll(reqs...)
	}
}

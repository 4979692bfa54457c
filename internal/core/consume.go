package core

import (
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/omp"
	"partmb/internal/sim"
)

// Receive-side overlap benchmark — an extension beyond the paper's four
// sender-centric metrics, following the receive-side partitioned
// communication idea (Dosanjh & Grant, 2019): the receiver has per-partition
// consumer work, and MPI_Parrived lets it start that work as partitions
// land instead of after the whole message. The benchmark compares the
// pipelined partitioned receive against a single-receive baseline whose
// consumers can only start after the full message arrives.

// ConsumeResult reports one receive-side overlap measurement.
type ConsumeResult struct {
	Config Config
	// ConsumePerPartition is the receiver-side work per partition.
	ConsumePerPartition sim.Duration
	// Baseline is fork-to-last-consumption with a single receive.
	Baseline sim.Duration
	// Partitioned is the same span with per-partition consumption.
	Partitioned sim.Duration
}

// Speedup returns Baseline/Partitioned (>1 when overlap helps).
func (r *ConsumeResult) Speedup() float64 {
	return float64(r.Baseline) / float64(r.Partitioned)
}

// String renders a one-line summary.
func (r *ConsumeResult) String() string {
	return fmt.Sprintf("receive-overlap m=%s parts=%d consume=%v: baseline=%v partitioned=%v speedup=%.2fx",
		FormatBytes(r.Config.MessageBytes), r.Config.Partitions, r.ConsumePerPartition,
		r.Baseline, r.Partitioned, r.Speedup())
}

// RunConsume measures receive-side overlap at one parameter point. The
// sender behaves exactly as in Run's partitioned phase (threads compute
// with noise, then Pready); the receiver consumes each partition for
// consumePerPartition of CPU time, either pipelined (partitioned) or after
// full arrival (baseline). One measured round per iteration; results are
// averaged.
func RunConsume(cfg Config, consumePerPartition sim.Duration) (*ConsumeResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if consumePerPartition < 0 {
		return nil, fmt.Errorf("core: negative consume time")
	}

	baseline, err := runConsumeMode(nil, cfg, consumePerPartition, false)
	if err != nil {
		return nil, err
	}
	partitioned, err := runConsumeMode(nil, cfg, consumePerPartition, true)
	if err != nil {
		return nil, err
	}
	return &ConsumeResult{
		Config:              cfg,
		ConsumePerPartition: consumePerPartition,
		Baseline:            baseline,
		Partitioned:         partitioned,
	}, nil
}

// consumers is the receiver's consumer threads, one body for every fork of
// a cell: thread i waits for partition i when pipelined, then consumes it.
type consumers struct {
	pipelined bool
	it        int
	precv     *mpi.PRequest
	place     *cluster.Placement
	consume   sim.Duration
}

func (b *consumers) Thread(tp *sim.Proc, i int) {
	if b.pipelined {
		b.precv.WaitPartition(tp, i)
	}
	tp.Sleep(b.place.ComputeTime(i, b.consume))
}

func (b *consumers) ThreadName(i int) string {
	if b.pipelined {
		return fmt.Sprintf("cc-%d-%d", b.it, i)
	}
	return fmt.Sprintf("cb-%d-%d", b.it, i)
}

// runConsumeMode measures the mean fork-to-last-consumption span on a
// simulation built on arena a.
func runConsumeMode(a *sim.Arena, cfg Config, consume sim.Duration, pipelined bool) (sim.Duration, error) {
	pf := cfg.Platform
	s := a.New()
	mcfg := pf.MPIConfig(2)
	mcfg.ThreadMode = pf.ThreadMode
	mcfg.PartImpl = pf.Impl
	w := mpi.NewWorld(s, mcfg)

	n := cfg.Partitions
	partBytes := cfg.MessageBytes / int64(n)
	placement := cluster.Place(pf.Machine, n)
	noiseModel := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed, a)
	total := cfg.Warmup + cfg.Iterations

	forkAts := make([]sim.Time, total)
	consumedAts := make([]sim.Time, total)

	s.Spawn("consume/sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(placement)
		psend := c.PsendInit(p, 1, tagPart, n, partBytes)
		single := c.SendInitBytes(p, 1, tagSingle, cfg.MessageBytes)
		threads := &readyThreads{name: "cw-%d-%d", ready: pipelined, psend: psend}
		compute := omp.NewCompute(placement, noiseModel, cfg.Compute, threads)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			c.Barrier(p)
			forkAts[it] = p.Now()
			if pipelined {
				psend.Start(p)
			}
			threads.it = it
			omp.ComputeRegion(p, compute)
			if pipelined {
				psend.Wait(p)
			} else {
				single.Start(p)
				single.Wait(p)
			}
			c.Barrier(p)
		}
	})

	s.Spawn("consume/receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		c.SetPlacement(placement)
		precv := c.PrecvInit(p, 0, tagPart, n, partBytes)
		single := c.RecvInit(p, 0, tagSingle)
		consumers := &consumers{pipelined: pipelined, precv: precv, place: placement, consume: consume}
		c.Barrier(p)
		for it := 0; it < total; it++ {
			c.Barrier(p)
			consumers.it = it
			if pipelined {
				// One consumer thread per partition, all running
				// concurrently on the receiver node.
				precv.Start(p)
				omp.Region(p, n, consumers)
				precv.Wait(p)
			} else {
				single.Start(p)
				single.Wait(p)
				// Full message present: consumers start together.
				omp.Region(p, n, consumers)
			}
			consumedAts[it] = p.Now()
			c.Barrier(p)
		}
	})

	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("core: receive-overlap simulation failed: %w", err)
	}
	var sum sim.Duration
	for it := cfg.Warmup; it < total; it++ {
		sum += consumedAts[it].Sub(forkAts[it])
	}
	return sum / sim.Duration(cfg.Iterations), nil
}

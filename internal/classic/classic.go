// Package classic implements the traditional MPI micro-benchmarks the paper
// positions itself against (§5): OSU/SMB-style ping-pong latency, windowed
// streaming bandwidth, bidirectional bandwidth and message rate, the
// Thakur–Gropp multithreaded latency test, and a message-matching
// queue-depth stress after Schonbein et al. — plus the partitioned variants
// those suites lack, which is exactly the gap the paper's suite fills.
//
// All benchmarks run on the simulated cluster and report virtual-time
// results, deterministic for a given configuration.
package classic

import (
	"context"
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/omp"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Config holds the shared benchmark parameters.
type Config struct {
	// Iterations is the number of measured repetitions per point.
	Iterations int
	// Warmup iterations run first and are discarded.
	Warmup int
	// Platform bundles the hardware models (nil = the paper's Niagara/EDR
	// defaults). Each benchmark picks its own MPI thread mode, so the
	// spec's ThreadMode is ignored here.
	Platform *platform.Spec
	// Adaptive, when non-nil, replaces the fixed Iterations count with
	// confidence-targeted sampling: each point draws single-iteration runs
	// under derived seeds until the value's confidence interval meets the
	// target (or the sample budget runs out), and Point carries the
	// estimate. Nil keeps the fixed path and its cache keys byte-identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
}

// DefaultConfig returns OSU-like iteration counts.
func DefaultConfig() Config {
	return Config{Iterations: 100, Warmup: 10}
}

func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 100
	}
	c.Platform = c.Platform.Resolved()
	return c
}

func (c *Config) validate() error {
	if c.Iterations <= 0 || c.Warmup < 0 {
		return fmt.Errorf("classic: Iterations must be positive and Warmup non-negative")
	}
	return c.Platform.Validate()
}

// Point is one (message size, value) result; Value's unit depends on the
// benchmark (seconds for latency, bytes/second for bandwidth).
type Point struct {
	Size  int64
	Value float64
	// CI is the confidence estimate of Value on adaptive runs (nil on the
	// fixed-rep path, keeping fixed-path JSON byte-identical).
	CI *stats.Estimate `json:",omitempty"`
}

// SampleStats implements the observability layer's Sampled interface (see
// internal/obs). Fixed-rep points report n == 0.
func (p Point) SampleStats() (n int, relCI float64, reason string) {
	if p.CI == nil {
		return 0, 0, ""
	}
	return p.CI.N, p.CI.RelHalfWidth, p.CI.Reason
}

// world builds a 2-rank world.
func (c Config) world(s *sim.Scheduler, mode mpi.ThreadMode) *mpi.World {
	mcfg := c.Platform.MPIConfig(2)
	mcfg.ThreadMode = mode
	return mpi.NewWorld(s, mcfg)
}

// The classic cells, one per benchmark kind. Key parts are the benchmark's
// arguments in the order the keys have always hashed them: size then
// window; threads, depth or partitions then size.
var (
	latencyCell = newCell("classic.Latency", func(ar *sim.Arena, c Config, a []int64) (float64, error) {
		return latencyAt(ar, c, a[0])
	})
	bandwidthCell = newCell("classic.Bandwidth", func(ar *sim.Arena, c Config, a []int64) (float64, error) {
		return bandwidthAt(ar, c, a[0], int(a[1]))
	})
	biBandwidthCell = newCell("classic.BiBandwidth", func(ar *sim.Arena, c Config, a []int64) (float64, error) {
		return biBandwidthAt(ar, c, a[0], int(a[1]))
	})
	threadLatencyCell = newCell("classic.ThreadLatency", func(ar *sim.Arena, c Config, a []int64) (sim.Duration, error) {
		return threadLatencyAt(ar, c, int(a[0]), a[1])
	})
	matchStressCell = newCell("classic.MatchStress", func(ar *sim.Arena, c Config, a []int64) (sim.Duration, error) {
		return matchStressAt(ar, c, int(a[0]))
	})
	partLatencyCell = newCell("classic.PartLatency", func(ar *sim.Arena, c Config, a []int64) (sim.Duration, error) {
		return partLatencyAt(ar, c, a[1], int(a[0]))
	})
)

func newCell[T any](kind string, run func(*sim.Arena, Config, []int64) (T, error)) *engine.Cell[Config, T] {
	return engine.NewCell(kind, func(c Config) (Config, *stats.RunConfig, bool) {
		return c.withDefaults(), c.Adaptive, false
	}, run, nil)
}

// sweepPoints runs one benchmark point per size on the runner's worker pool
// (nil = the shared default runner); extra are the key parts that follow
// the size, and what names the benchmark in errors.
func sweepPoints(rn *engine.Runner, what string, cell *engine.Cell[Config, float64],
	cfg Config, sizes []int64, extra ...int64) ([]Point, error) {
	r := engine.OrDefault(rn)
	// Classic point cost scales with the message size.
	cost := func(i int) float64 { return float64(sizes[i]) }
	vals, err := r.Sweep(context.Background(), len(sizes), cost, func(ctx context.Context, i int) (any, error) {
		pt, err := point(r, cell, cfg, append([]int64{sizes[i]}, extra...))
		if err != nil {
			return nil, fmt.Errorf("%s: size %s: %w", what, core.FormatBytes(sizes[i]), err)
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(vals))
	for i, v := range vals {
		out[i] = v.(Point)
	}
	return out, nil
}

// point resolves one benchmark point, whose size is args[0]. With
// cfg.Adaptive set it draws single-iteration runs of the same kind under
// seeds derived from the platform seed (stats.DeriveSeed) until the sampler
// declares the estimate tight — classic sims are deterministic per seed, so
// a quiet benchmark converges at MinSamples draws instead of burning the
// fixed OSU-style iteration count. The adaptive Value is the sample mean,
// with the full estimate attached.
func point(r *engine.Runner, cell *engine.Cell[Config, float64], cfg Config, args []int64) (Point, error) {
	if cfg.Adaptive == nil {
		v, err := cell.Run(r, cfg, args...)
		return Point{Size: args[0], Value: v}, err
	}
	return engine.Sampled(r, cell, cfg, args, func() (Point, error) {
		_, est, err := cell.Draws(r, cfg, args, func(c Config, d int) Config {
			c.Adaptive, c.Iterations = nil, 1
			c.Platform = c.Platform.WithSeed(stats.DeriveSeed(c.Platform.Seed, d))
			return c
		}, func(v float64) float64 { return v })
		if err != nil {
			return Point{}, err
		}
		return Point{Size: args[0], Value: est.Mean, CI: &est}, nil
	})
}

// Latency runs the ping-pong latency benchmark (osu_latency): half the
// average round-trip time per size, in seconds. Sizes run in parallel on the
// runner's worker pool (nil = the shared default runner).
func Latency(rn *engine.Runner, cfg Config, sizes []int64) ([]Point, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return sweepPoints(rn, "classic.Latency", latencyCell, cfg, sizes)
}

func latencyAt(a *sim.Arena, cfg Config, size int64) (float64, error) {
	s := a.New()
	w := cfg.world(s, mpi.Funneled)
	var span sim.Duration
	total := cfg.Warmup + cfg.Iterations
	s.Spawn("ping", func(p *sim.Proc) {
		c := w.Comm(0)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			if it == cfg.Warmup {
				span = -sim.Duration(p.Now())
			}
			c.SendBytes(p, 1, 0, size)
			c.Recv(p, 1, 1)
		}
		span += sim.Duration(p.Now())
	})
	s.Spawn("pong", func(p *sim.Proc) {
		c := w.Comm(1)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			c.Recv(p, 0, 0)
			c.SendBytes(p, 0, 1, size)
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	return span.Seconds() / float64(cfg.Iterations) / 2, nil
}

// Bandwidth runs the windowed streaming bandwidth benchmark (osu_bw): the
// sender posts `window` nonblocking sends, the receiver pre-posts matching
// receives, and a short ack closes each window. Bytes/second per size.
func Bandwidth(rn *engine.Runner, cfg Config, sizes []int64, window int) ([]Point, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("classic: window must be positive")
	}
	return sweepPoints(rn, "classic.Bandwidth", bandwidthCell, cfg, sizes, int64(window))
}

func bandwidthAt(a *sim.Arena, cfg Config, size int64, window int) (float64, error) {
	s := a.New()
	w := cfg.world(s, mpi.Funneled)
	var span sim.Duration
	total := cfg.Warmup + cfg.Iterations
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.Barrier(p)
		reqs := make([]*mpi.Request, window)
		for it := 0; it < total; it++ {
			if it == cfg.Warmup {
				span = -sim.Duration(p.Now())
			}
			for i := range reqs {
				reqs[i] = c.IsendBytes(p, 1, i, size)
			}
			mpi.WaitAll(p, reqs...)
			mpi.FreeAll(reqs...)
			c.Recv(p, 1, 999) // window ack
		}
		span += sim.Duration(p.Now())
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		c.Barrier(p)
		reqs := make([]*mpi.Request, window)
		for it := 0; it < total; it++ {
			for i := range reqs {
				reqs[i] = c.Irecv(p, 0, i)
			}
			mpi.WaitAll(p, reqs...)
			mpi.FreeAll(reqs...)
			c.SendBytes(p, 0, 999, 0)
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	bytes := float64(cfg.Iterations) * float64(window) * float64(size)
	return bytes / span.Seconds(), nil
}

// BiBandwidth runs the bidirectional bandwidth benchmark (osu_bibw): both
// ranks stream windows at each other simultaneously. Aggregate bytes/second.
func BiBandwidth(rn *engine.Runner, cfg Config, sizes []int64, window int) ([]Point, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if window <= 0 {
		return nil, fmt.Errorf("classic: window must be positive")
	}
	return sweepPoints(rn, "classic.BiBandwidth", biBandwidthCell, cfg, sizes, int64(window))
}

func biBandwidthAt(a *sim.Arena, cfg Config, size int64, window int) (float64, error) {
	s := a.New()
	w := cfg.world(s, mpi.Funneled)
	var span sim.Duration
	total := cfg.Warmup + cfg.Iterations
	side := func(rank int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			c := w.Comm(rank)
			other := 1 - rank
			c.Barrier(p)
			reqs := make([]*mpi.Request, 0, 2*window)
			for it := 0; it < total; it++ {
				if rank == 0 && it == cfg.Warmup {
					span = -sim.Duration(p.Now())
				}
				reqs = reqs[:0]
				for i := 0; i < window; i++ {
					reqs = append(reqs, c.Irecv(p, other, 100+i))
				}
				for i := 0; i < window; i++ {
					reqs = append(reqs, c.IsendBytes(p, other, 100+i, size))
				}
				mpi.WaitAll(p, reqs...)
				mpi.FreeAll(reqs...)
				if rank == 0 && it == total-1 {
					span += sim.Duration(p.Now())
				}
			}
		}
	}
	s.Spawn("r0", side(0))
	s.Spawn("r1", side(1))
	if err := s.Run(); err != nil {
		return 0, err
	}
	bytes := 2 * float64(cfg.Iterations) * float64(window) * float64(size)
	return bytes / span.Seconds(), nil
}

// MessageRate runs the small-message rate benchmark (osu_mbw_mr's rate
// side, one pair): messages per second at the given size and window.
func MessageRate(rn *engine.Runner, cfg Config, size int64, window int) (float64, error) {
	pts, err := Bandwidth(rn, cfg, []int64{size}, window)
	if err != nil {
		return 0, err
	}
	if size == 0 {
		return 0, fmt.Errorf("classic: message rate needs a positive size")
	}
	return pts[0].Value / float64(size), nil
}

// ThreadLatency runs the Thakur–Gropp multithreaded latency test: `threads`
// concurrent ping-pong pairs between two ranks under MPI_THREAD_MULTIPLE.
// It returns the average per-message half round trip, which grows with the
// thread count as the library lock contends — the effect partitioned
// communication avoids.
func ThreadLatency(rn *engine.Runner, cfg Config, threads int, size int64) (sim.Duration, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if threads <= 0 {
		return 0, fmt.Errorf("classic: threads must be positive")
	}
	return threadLatencyCell.Run(rn, cfg, int64(threads), size)
}

func threadLatencyAt(a *sim.Arena, cfg Config, threads int, size int64) (sim.Duration, error) {
	s := a.New()
	w := cfg.world(s, mpi.Multiple)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.SetPlacement(cluster.Place(cfg.Platform.Machine, threads))
	c1.SetPlacement(cluster.Place(cfg.Platform.Machine, threads))
	pairs := &threadPairs{
		c0: c0, c1: c1, size: size,
		total:    cfg.Warmup + cfg.Iterations,
		startBar: sim.NewBarrier(2 * threads),
	}
	s.Spawn("join", func(p *sim.Proc) { omp.Region(p, 2*threads, pairs) })
	if err := s.Run(); err != nil {
		return 0, err
	}
	span := pairs.end.Sub(pairs.start)
	// Per-message half round trip, averaged over every pair's traffic.
	return span / sim.Duration(2*pairs.total), nil
}

// threadPairs is the threads of the multithreaded latency test: thread 2t
// pings from thread t of rank 0, thread 2t+1 answers on thread t of rank 1.
type threadPairs struct {
	c0, c1     *mpi.Comm
	size       int64
	total      int
	startBar   *sim.Barrier
	start, end sim.Time
}

func (b *threadPairs) Thread(p *sim.Proc, m int) {
	t := m / 2
	b.startBar.Await(p)
	if m%2 == 1 {
		ep := b.c1.Endpoint(t)
		for it := 0; it < b.total; it++ {
			ep.Recv(p, 0, 2*t)
			ep.SendBytes(p, 0, 2*t+1, b.size)
		}
		return
	}
	if t == 0 {
		b.start = p.Now()
	}
	ep := b.c0.Endpoint(t)
	for it := 0; it < b.total; it++ {
		ep.SendBytes(p, 1, 2*t, b.size)
		ep.Recv(p, 1, 2*t+1)
	}
	b.end = max(b.end, p.Now())
}

func (b *threadPairs) ThreadName(m int) string {
	if m%2 == 1 {
		return fmt.Sprintf("pong%d", m/2)
	}
	return fmt.Sprintf("ping%d", m/2)
}

// MatchStress measures the receive-posting cost behind an unexpected queue
// of the given depth (after Schonbein et al.'s matching benchmark): the
// returned duration is the time Irecv spends searching the queue.
func MatchStress(rn *engine.Runner, cfg Config, depth int) (sim.Duration, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if depth < 0 {
		return 0, fmt.Errorf("classic: negative depth")
	}
	return matchStressCell.Run(rn, cfg, int64(depth), 0)
}

func matchStressAt(a *sim.Arena, cfg Config, depth int) (sim.Duration, error) {
	s := a.New()
	w := cfg.world(s, mpi.Funneled)
	var took sim.Duration
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		for i := 0; i < depth; i++ {
			c.SendBytes(p, 1, 1000+i, 8) // never-matched junk
		}
		c.SendBytes(p, 1, 7, 8) // the probe message
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		p.Sleep(sim.Millisecond) // let everything land unexpected
		before := p.Now()
		r := c.Irecv(p, 0, 7)
		took = p.Now().Sub(before)
		r.Wait(p)
		for i := 0; i < depth; i++ {
			c.Recv(p, 0, 1000+i)
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	return took, nil
}

// PartLatency is the partitioned ping-pong the classic suites lack: one
// epoch of an n-partition transfer each way per iteration. It returns the
// average one-way epoch time (Start+Pready*+Wait on the sender, Start+Wait
// on the receiver).
func PartLatency(rn *engine.Runner, cfg Config, size int64, parts int) (sim.Duration, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	if parts <= 0 || size%int64(parts) != 0 {
		return 0, fmt.Errorf("classic: %d partitions must divide %d bytes", parts, size)
	}
	return partLatencyCell.Run(rn, cfg, int64(parts), size)
}

func partLatencyAt(a *sim.Arena, cfg Config, size int64, parts int) (sim.Duration, error) {
	s := a.New()
	w := cfg.world(s, mpi.Multiple)
	partBytes := size / int64(parts)
	var span sim.Duration
	total := cfg.Warmup + cfg.Iterations
	s.Spawn("ping", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(cluster.Place(cfg.Platform.Machine, parts))
		tx := c.PsendInit(p, 1, 0, parts, partBytes)
		rx := c.PrecvInit(p, 1, 1, parts, partBytes)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			if it == cfg.Warmup {
				span = -sim.Duration(p.Now())
			}
			tx.Start(p)
			for i := 0; i < parts; i++ {
				tx.Pready(p, i)
			}
			tx.Wait(p)
			rx.Start(p)
			rx.Wait(p)
		}
		span += sim.Duration(p.Now())
	})
	s.Spawn("pong", func(p *sim.Proc) {
		c := w.Comm(1)
		c.SetPlacement(cluster.Place(cfg.Platform.Machine, parts))
		rx := c.PrecvInit(p, 0, 0, parts, partBytes)
		tx := c.PsendInit(p, 0, 1, parts, partBytes)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			rx.Start(p)
			rx.Wait(p)
			tx.Start(p)
			for i := 0; i < parts; i++ {
				tx.Pready(p, i)
			}
			tx.Wait(p)
		}
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	return span / sim.Duration(2*cfg.Iterations), nil
}

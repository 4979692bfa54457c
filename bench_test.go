package partmb_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"partmb/internal/classic"
	"partmb/internal/cluster"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/figures"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/omp"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/snap"
)

// ---------------------------------------------------------------------------
// One benchmark per paper figure. Each op regenerates the figure's data at
// Quick scale; run with -scale-equivalent sweeps via `go run ./cmd/partmb
// figures -scale full` for the paper-size parameter ranges.
// ---------------------------------------------------------------------------

func benchFigure(b *testing.B, fig int) {
	b.Helper()
	sc := figures.Quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := figures.Env{}.Generate(fig, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkFig04Overhead(b *testing.B)       { benchFigure(b, 4) }
func BenchmarkFig05PerceivedBW(b *testing.B)    { benchFigure(b, 5) }
func BenchmarkFig06Availability(b *testing.B)   { benchFigure(b, 6) }
func BenchmarkFig07NoiseModels(b *testing.B)    { benchFigure(b, 7) }
func BenchmarkFig08EarlyBird(b *testing.B)      { benchFigure(b, 8) }
func BenchmarkFig09Sweep3D10ms(b *testing.B)    { benchFigure(b, 9) }
func BenchmarkFig10Sweep3D100ms(b *testing.B)   { benchFigure(b, 10) }
func BenchmarkFig11Halo3D10ms(b *testing.B)     { benchFigure(b, 11) }
func BenchmarkFig12Halo3D100ms(b *testing.B)    { benchFigure(b, 12) }
func BenchmarkFig13SnapProjection(b *testing.B) { benchFigure(b, 13) }

// ---------------------------------------------------------------------------
// Engine benchmarks: the full quick `-fig all` sweep, serial-uncached vs
// parallel+cached — the speedup the experiment engine buys. Numbers are
// recorded in EXPERIMENTS.md.
// ---------------------------------------------------------------------------

func benchFigAll(b *testing.B, rn func() *engine.Runner) {
	b.Helper()
	sc := figures.Quick()
	for i := 0; i < b.N; i++ {
		env := figures.Env{Runner: rn()}
		for _, fig := range figures.Numbers() {
			if _, err := env.Generate(fig, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFigAllQuickSerial(b *testing.B) {
	benchFigAll(b, func() *engine.Runner {
		return engine.New(engine.Workers(1), engine.WithoutCache())
	})
}

func BenchmarkFigAllQuickParallelCached(b *testing.B) {
	benchFigAll(b, func() *engine.Runner { return engine.New() })
}

// ---------------------------------------------------------------------------
// Runtime micro-benchmarks: how fast is the simulator itself? Each is a
// function building the simulation that performs n ops, so the benchmark
// (benchSim) and the allocation pin (TestAllocPins) run the same code.
// ---------------------------------------------------------------------------

func benchSim(b *testing.B, build func(n int) *sim.Scheduler) {
	b.Helper()
	b.ReportAllocs()
	s := build(b.N)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// simEvents measures raw event throughput of the DES kernel.
func simEvents(n int) *sim.Scheduler {
	s := sim.New()
	s.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Microsecond)
		}
	})
	return s
}

// sleepWake measures the single-proc sleep/wake fast path: a lone sleeper
// has nothing due before its own wake, so Sleep skips the queue — one op is a
// clock and sequence-number bump, zero coroutine switches, zero allocations.
func sleepWake(n int) *sim.Scheduler {
	s := sim.New()
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	return s
}

// procHandoff measures the cross-proc wake: two procs alternating via a
// condition variable, so every wake is two coroutine switches — the parking
// proc out to the drive loop, the loop into the woken proc.
func procHandoff(n int) *sim.Scheduler {
	s := sim.New()
	var mu sim.Mutex
	cond := sim.NewCond(&mu)
	turn := 0
	runner := func(me int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			mu.Lock(p)
			for i := 0; i < n; i++ {
				for turn != me {
					cond.Wait(p)
				}
				turn = 1 - me
				cond.Signal(p)
			}
			mu.Unlock(p)
		}
	}
	s.Spawn("a", runner(0))
	s.Spawn("b", runner(1))
	return s
}

// forkJoinSpawn measures one fork and join of an 8-thread compute region
// per op, the paper's per-iteration OpenMP region, forked the way core.Run's
// partitioned phase forks it: one omp.Compute body for the whole run draws
// each region's noisy compute times into its own slice, and thread t sleeps
// its time and then hands its index to the continuation, which reads the
// fork's inputs from its fields. The runner pool reuses the coroutines and
// the Proc values inside them, the thread index rides on the runner, and no
// name is formatted, so an op allocates nothing.
func forkJoinSpawn(n int) *sim.Scheduler {
	const team = 8
	s := sim.New()
	then := &readiedThreads{readied: make([]int, team)}
	compute := omp.NewCompute(cluster.Place(cluster.Niagara(), team), noise.New(noise.Uniform, 4, 1, nil), sim.Microsecond, then)
	s.Spawn("master", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			then.it = i
			omp.ComputeRegion(p, compute)
		}
	})
	return s
}

// readiedThreads records, per thread, the last iteration it finished in.
type readiedThreads struct {
	it      int
	readied []int
}

func (b *readiedThreads) Thread(tp *sim.Proc, t int) { b.readied[t] = b.it }
func (b *readiedThreads) ThreadName(t int) string {
	return fmt.Sprintf("w2-%d-%d", b.it, t)
}

// pingPong builds n simulated ping-pongs of size-byte messages.
func pingPong(size int64) func(n int) *sim.Scheduler {
	return func(n int) *sim.Scheduler {
		s := sim.New()
		w := mpi.NewWorld(s, mpi.DefaultConfig(2))
		s.Spawn("r0", func(p *sim.Proc) {
			c := w.Comm(0)
			for i := 0; i < n; i++ {
				c.SendBytes(p, 1, 0, size)
				c.Recv(p, 1, 1)
			}
		})
		s.Spawn("r1", func(p *sim.Proc) {
			c := w.Comm(1)
			for i := 0; i < n; i++ {
				c.Recv(p, 0, 0)
				c.SendBytes(p, 0, 1, size)
			}
		})
		return s
	}
}

// pt2ptRoundtrip measures one eager ping-pong per op, rendezvousRoundtrip
// one above the eager threshold. Either way an op allocates nothing: the
// blocking calls' requests come back off their ranks' free lists, waiter
// storage included, and the message records off the scheduler's.
var (
	pt2ptRoundtrip      = pingPong(1024)
	rendezvousRoundtrip = pingPong(1 << 20)
)

// barrier4 measures one Barrier of four ranks under MPI_THREAD_MULTIPLE per
// op: two dissemination rounds of blocking size-0 sends and receives per
// rank, none of which allocates.
func barrier4(n int) *sim.Scheduler {
	s := sim.New()
	cfg := mpi.DefaultConfig(4)
	cfg.ThreadMode = mpi.Multiple
	w := mpi.NewWorld(s, cfg)
	w.Launch("barrier", func(c *mpi.Comm, p *sim.Proc) {
		for i := 0; i < n; i++ {
			c.Barrier(p)
		}
	})
	return s
}

// partitionedEpoch measures one 16-partition MPIPCL epoch per op,
// nativeEpoch the same epoch on the native implementation. An epoch reuses
// the state the first one made — the flags, timestamps and per-partition
// completions, MPIPCL's inner requests — and its one-way records come back
// through the scheduler's list, so it allocates nothing.
func partitionedEpoch(n int) *sim.Scheduler { return partEpoch(n, mpi.PartMPIPCL) }
func nativeEpoch(n int) *sim.Scheduler      { return partEpoch(n, mpi.PartNative) }

func partEpoch(n int, impl mpi.PartImpl) *sim.Scheduler {
	s := sim.New()
	cfg := mpi.DefaultConfig(2)
	cfg.PartImpl = impl
	w := mpi.NewWorld(s, cfg)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(cluster.Place(w.Config().Machine, 16))
		pr := c.PsendInit(p, 1, 0, 16, 4096)
		c.Barrier(p)
		for i := 0; i < n; i++ {
			pr.Start(p)
			for j := 0; j < 16; j++ {
				pr.Pready(p, j)
			}
			pr.Wait(p)
		}
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 16, 4096)
		c.Barrier(p)
		for i := 0; i < n; i++ {
			pr.Start(p)
			pr.Wait(p)
		}
	})
	return s
}

func BenchmarkSimEvents(b *testing.B)           { benchSim(b, simEvents) }
func BenchmarkSleepWake(b *testing.B)           { benchSim(b, sleepWake) }
func BenchmarkProcHandoff(b *testing.B)         { benchSim(b, procHandoff) }
func BenchmarkForkJoinSpawn(b *testing.B)       { benchSim(b, forkJoinSpawn) }
func BenchmarkPt2PtRoundtrip(b *testing.B)      { benchSim(b, pt2ptRoundtrip) }
func BenchmarkRendezvousRoundtrip(b *testing.B) { benchSim(b, rendezvousRoundtrip) }
func BenchmarkBarrier4(b *testing.B)            { benchSim(b, barrier4) }
func BenchmarkPartitionedEpoch(b *testing.B)    { benchSim(b, partitionedEpoch) }
func BenchmarkNativeEpoch(b *testing.B)         { benchSim(b, nativeEpoch) }

// TestAllocPins pins heap allocations per op of the kernel and protocol fast
// paths. Counts repeat exactly on every host, so they are ordinary tests and
// need no baseline file. An op's allocations are those of a 2n-op run minus
// those of an n-op run, over n and rounded down: set-up left out and
// amortised growth ignored, as -benchmem does.
func TestAllocPins(t *testing.T) {
	const n = 2000
	for _, pin := range []struct {
		name  string
		build func(n int) *sim.Scheduler
		max   int
	}{
		{"SimEvents", simEvents, 0},
		{"SleepWake", sleepWake, 0},
		{"ProcHandoff", procHandoff, 0},
		{"ForkJoinSpawn", forkJoinSpawn, 0},
		{"Pt2PtRoundtrip", pt2ptRoundtrip, 0},
		{"RendezvousRoundtrip", rendezvousRoundtrip, 0},
		{"Barrier4", barrier4, 0},
		{"PartitionedEpoch", partitionedEpoch, 0},
		{"NativeEpoch", nativeEpoch, 0},
	} {
		run := func(n int) int {
			return int(testing.AllocsPerRun(1, func() {
				if err := pin.build(n).Run(); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if got := (run(2*n) - run(n)) / n; got > pin.max {
			t.Errorf("%s: %d allocs/op, pinned at %d", pin.name, got, pin.max)
		}
	}

	// A cell's set-up: a quick core.Run cell on one engine lane starts with
	// the coroutines, events, noise generator and MPI world the cell before
	// it left in the lane's arena, and its forks allocate nothing. It
	// measures 3,704 B in 68 allocations; the same cell on no arena (outside
	// any Sweep) costs 24,448 B in 302. Before forks stopped allocating
	// (a closure and a name per thread, noise and timestamp slices per
	// iteration) the warm cell cost 8,984 B in 225, and before arenas kept
	// worlds 17,640 B in 316. Bytes move by a few per run, so they are pinned
	// with that much slack. Under -race, sync.Pool drops Puts at random
	// (fmt's printers, the keying encoders), so the pin is skipped.
	if raceEnabled {
		return
	}
	bytes, allocs, err := coreCellCost(true)
	if err != nil {
		t.Fatal(err)
	}
	if bytes > 3770 || allocs > 68 {
		t.Errorf("CoreCellWarmArena: %d B in %d allocs, pinned at 3770 B in 68", bytes, allocs)
	}
}

// TestEventPins pins the events one quick cell of each family pops, the
// sleeps that skip the queue and the coroutine resumes, counted on a fresh
// arena (sim.Arena.Events). They are deterministic, so a kernel change that
// claims to leave the simulation as it was (a new event queue, say) must
// leave every count as it is.
func TestEventPins(t *testing.T) {
	spec := (*platform.Spec)(nil).Resolved().WithNoise(noise.SingleThread, 4)
	for _, pin := range []struct {
		name string
		run  func(rn *engine.Runner) error
		want sim.EventCounts
	}{
		{"core.Run", func(rn *engine.Runner) error {
			_, err := core.RunCached(rn, quickCoreCell())
			return err
		}, sim.EventCounts{Popped: 651, ShortCut: 116, Resumes: 295}},
		{"patterns.Halo3D", func(rn *engine.Runner) error {
			_, err := patterns.Halo3D.Run(rn, patterns.HaloConfig{
				Nx: 2, Ny: 2, Nz: 2, ThreadsPerDim: 4, FaceBytes: 256 << 10,
				Compute: 10 * sim.Millisecond, Repeats: 2, Mode: patterns.Partitioned, Platform: spec,
			})
			return err
		}, sim.EventCounts{Popped: 29032, ShortCut: 2122, Resumes: 22696}},
		{"patterns.Sweep3D", func(rn *engine.Runner) error {
			_, err := patterns.Sweep3D.Run(rn, patterns.SweepConfig{
				Px: 2, Py: 2, Threads: 16, BytesPerThread: 64 << 10, Compute: 10 * sim.Millisecond,
				ZBlocks: 2, Octants: 4, Repeats: 1, Mode: patterns.Partitioned, Platform: spec,
			})
			return err
		}, sim.EventCounts{Popped: 25307, ShortCut: 12370, Resumes: 21659}},
		{"snap.Profile", func(rn *engine.Runner) error {
			_, err := snap.ProfileScaling(rn, snap.DefaultConfig(), []int{8})
			return err
		}, sim.EventCounts{Popped: 24207, ShortCut: 11140, Resumes: 6095}},
	} {
		// The runner hands each cell to the capture as a task, and the
		// test then runs every task on one fresh arena.
		x := &taskCapture{}
		if err := pin.run(engine.New(engine.Workers(1), engine.WithExecutor(x))); err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		var a sim.Arena
		for _, task := range x.tasks {
			if _, err := engine.LookupKind(task.Kind)(&a, task.Config); err != nil {
				t.Fatalf("%s: %v", pin.name, err)
			}
		}
		got := a.Events()
		a.Close()
		if got != pin.want {
			t.Errorf("%s: events %+v, pinned at %+v", pin.name, got, pin.want)
		}
	}
}

// taskCapture records every task a runner ships and answers ErrNoWorkers, so
// the runner computes the cell itself.
type taskCapture struct {
	mu    sync.Mutex
	tasks []engine.RemoteTask
}

func (x *taskCapture) Execute(_ context.Context, t engine.RemoteTask) (engine.RemoteResult, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.tasks = append(x.tasks, t)
	return engine.RemoteResult{}, engine.ErrNoWorkers
}

// quickCoreCell is a Figure 8 cell at quick scale: 1 MiB in 8 partitions
// under MPI_THREAD_MULTIPLE, 10 ms of compute with 4 % uniform noise, 3
// measured iterations after 1 of warm-up.
func quickCoreCell() core.Config {
	return core.Config{
		MessageBytes: 1 << 20,
		Partitions:   8,
		Compute:      10 * sim.Millisecond,
		Iterations:   3,
		Warmup:       1,
		Platform:     (*platform.Spec)(nil).Resolved().WithThreadMode(mpi.Multiple).WithNoise(noise.Uniform, 4),
	}
}

// coreCellCost returns the heap bytes and allocations of a quickCoreCell run
// through an uncached runner after a first one: on its lane's arena inside a
// Sweep (onArena), or outside any Sweep, on no arena. It takes the mean of
// ten runs, and the least of three such means, since anything else the
// process allocates meanwhile can only add.
func coreCellCost(onArena bool) (bytes, allocs uint64, err error) {
	const runs = 10
	rn := engine.New(engine.Workers(1), engine.WithoutCache())
	bytes, allocs = math.MaxUint64, math.MaxUint64
	measure := func() error {
		if _, err := core.RunCached(rn, quickCoreCell()); err != nil {
			return err
		}
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := core.RunCached(rn, quickCoreCell()); err != nil {
					return err
				}
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
			allocs = min(allocs, (after.Mallocs-before.Mallocs)/runs)
		}
		return nil
	}
	if onArena {
		_, err = rn.Sweep(context.Background(), 1, nil, func(context.Context, int) (any, error) { return nil, measure() })
	} else {
		err = measure()
	}
	return bytes, allocs, err
}

// BenchmarkCoreCell measures one quickCoreCell per op through an uncached
// runner, outside any Sweep (no arena) and on one lane's arena: the gap is
// the set-up the arena saves.
func BenchmarkCoreCell(b *testing.B) {
	for _, onArena := range []bool{false, true} {
		b.Run(map[bool]string{false: "no-arena", true: "arena"}[onArena], func(b *testing.B) {
			rn := engine.New(engine.Workers(1), engine.WithoutCache())
			loop := func() error {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.RunCached(rn, quickCoreCell()); err != nil {
						return err
					}
				}
				return nil
			}
			var err error
			if onArena {
				_, err = rn.Sweep(context.Background(), 1, nil, func(context.Context, int) (any, error) {
					if _, err := core.RunCached(rn, quickCoreCell()); err != nil {
						return nil, err
					}
					return nil, loop()
				})
			} else {
				err = loop()
			}
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Sharded-kernel benchmark: one large Halo3D simulation (512 ranks) per op
// at several event-loop shard counts. The virtual result is identical at
// every shard count (pinned by the patterns identity tests); the wall-clock
// ratio between sub-benchmarks is the multi-core speedup the sharded DES
// loop buys.
// ---------------------------------------------------------------------------

func BenchmarkShardedHalo3D(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := patterns.RunHalo3D(patterns.HaloConfig{
					Nx: 8, Ny: 8, Nz: 8,
					ThreadsPerDim: 1,
					FaceBytes:     4096,
					Compute:       200 * sim.Microsecond,
					Repeats:       2,
					Mode:          patterns.Single,
					Shards:        shards,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Messages == 0 {
					b.Fatal("no messages")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks for the design choices in DESIGN.md §5. Each reports
// the *simulated* quantity of interest as a custom metric so the effect of
// the modeled mechanism is visible next to the wall-clock cost.
// ---------------------------------------------------------------------------

// partSpan runs one 16-partition, 64KiB-total epoch under cfg and returns
// t_part (first Pready to last arrival).
func partSpan(b *testing.B, mcfg mpi.Config) sim.Duration {
	b.Helper()
	s := sim.New()
	w := mpi.NewWorld(s, mcfg)
	var spr, rpr *mpi.PRequest
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(cluster.Place(mcfg.Machine, 32))
		spr = c.PsendInit(p, 1, 0, 32, 2048)
		c.Barrier(p)
		spr.Start(p)
		for j := 0; j < 32; j++ {
			spr.Pready(p, j)
		}
		spr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		rpr = c.PrecvInit(p, 0, 0, 32, 2048)
		c.Barrier(p)
		rpr.Start(p)
		rpr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	return rpr.LastArriveAt().Sub(spr.FirstReadyAt())
}

// BenchmarkAblationImpl compares the layered (MPIPCL) and native
// partitioned implementations.
func BenchmarkAblationImpl(b *testing.B) {
	for _, impl := range []mpi.PartImpl{mpi.PartMPIPCL, mpi.PartNative} {
		impl := impl
		b.Run(impl.String(), func(b *testing.B) {
			var span sim.Duration
			for i := 0; i < b.N; i++ {
				cfg := mpi.DefaultConfig(2)
				cfg.PartImpl = impl
				span = partSpan(b, cfg)
			}
			b.ReportMetric(span.Microseconds(), "sim-us/epoch")
		})
	}
}

// BenchmarkAblationCrossSocket isolates the 32-partition socket-spillover
// step by zeroing the cross-socket penalty.
func BenchmarkAblationCrossSocket(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "penalty-on"
		if !on {
			name = "penalty-off"
		}
		on := on
		b.Run(name, func(b *testing.B) {
			var span sim.Duration
			for i := 0; i < b.N; i++ {
				cfg := mpi.DefaultConfig(2)
				if !on {
					m := *cfg.Machine
					m.CrossSocketPenalty = 0
					cfg.Machine = &m
				}
				span = partSpan(b, cfg)
			}
			b.ReportMetric(span.Microseconds(), "sim-us/epoch")
		})
	}
}

// BenchmarkAblationEagerThreshold moves the eager/rendezvous knee.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for _, thr := range []int64{1 << 10, 16 << 10, 256 << 10} {
		thr := thr
		b.Run(core.FormatBytes(thr), func(b *testing.B) {
			var span sim.Duration
			for i := 0; i < b.N; i++ {
				cfg := mpi.DefaultConfig(2)
				net := *cfg.Net
				net.EagerThreshold = thr
				cfg.Net = &net
				span = partSpan(b, cfg)
			}
			b.ReportMetric(span.Microseconds(), "sim-us/epoch")
		})
	}
}

// BenchmarkAblationLockContention isolates the MPI_THREAD_MULTIPLE
// lock-contention model in the Sweep3D motif.
func BenchmarkAblationLockContention(b *testing.B) {
	run := func(b *testing.B, contention sim.Duration) float64 {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := patterns.RunSweep3D(patterns.SweepConfig{
				Px: 2, Py: 2,
				Threads:        16,
				BytesPerThread: 256 << 10,
				Compute:        sim.Millisecond,
				ZBlocks:        2,
				Octants:        4,
				Repeats:        1,
				Mode:           patterns.Multi,
				Platform:       platform.Niagara().WithNoise(noise.SingleThread, 4),
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Throughput() / 1e9
		}
		_ = contention
		return last
	}
	// The contention knob lives in mpi.Config, which patterns owns
	// internally; compare Multi (contended) vs Partitioned-native
	// (lock-free) instead.
	b.Run("multi-contended", func(b *testing.B) {
		gbps := run(b, 0)
		b.ReportMetric(gbps, "sim-GB/s")
	})
	b.Run("partitioned-native-lockfree", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			res, err := patterns.RunSweep3D(patterns.SweepConfig{
				Px: 2, Py: 2,
				Threads:        16,
				BytesPerThread: 256 << 10,
				Compute:        sim.Millisecond,
				ZBlocks:        2,
				Octants:        4,
				Repeats:        1,
				Mode:           patterns.Partitioned,
				Platform:       platform.Niagara().WithNoise(noise.SingleThread, 4).WithImpl(mpi.PartNative),
			})
			if err != nil {
				b.Fatal(err)
			}
			last = res.Throughput() / 1e9
		}
		b.ReportMetric(last, "sim-GB/s")
	})
}

// BenchmarkAblationCache compares hot and cold cache effects on the
// overhead metric.
func BenchmarkAblationCache(b *testing.B) {
	for _, mode := range []memsim.CacheMode{memsim.Hot, memsim.Cold} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.Config{
					MessageBytes: 256 << 10,
					Partitions:   16,
					Compute:      sim.Millisecond,
					Iterations:   3,
					Warmup:       1,
					Platform: platform.Niagara().WithCache(mode).
						WithImpl(mpi.PartMPIPCL).WithThreadMode(mpi.Multiple),
				})
				if err != nil {
					b.Fatal(err)
				}
				overhead = res.Overhead
			}
			b.ReportMetric(overhead, "sim-overhead-x")
		})
	}
}

// BenchmarkSnapProfile measures the 8-node SNAP proxy profile.
func BenchmarkSnapProfile(b *testing.B) {
	b.ReportAllocs()
	cfg := snap.DefaultConfig()
	cfg.Octants = 4
	for i := 0; i < b.N; i++ {
		if _, err := snap.Profile(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Extension benchmarks: the future-work features realized in this repo.
// ---------------------------------------------------------------------------

// BenchmarkExtensionPBcast measures one partitioned-broadcast epoch across
// 8 ranks per op.
func BenchmarkExtensionPBcast(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	w := mpi.NewWorld(s, mpi.DefaultConfig(8))
	w.Launch("pbcast", func(c *mpi.Comm, p *sim.Proc) {
		pb := c.PBcastInit(p, 0, 8, 64<<10)
		c.Barrier(p)
		for i := 0; i < b.N; i++ {
			pb.Start(p)
			if pb.Root() {
				for j := 0; j < 8; j++ {
					pb.Pready(p, j)
				}
			}
			pb.Wait(p)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExtensionReceiveOverlap measures one receive-overlap comparison
// per op and reports the simulated speedup.
func BenchmarkExtensionReceiveOverlap(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunConsume(core.Config{
			MessageBytes: 8 << 20,
			Partitions:   16,
			Compute:      5 * sim.Millisecond,
			Iterations:   3,
			Warmup:       1,
			Platform:     platform.Niagara().WithNoise(noise.Uniform, 4),
		}, 2*sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup()
	}
	b.ReportMetric(speedup, "sim-speedup-x")
}

// BenchmarkExtensionSnapPort measures one 16-node baseline-vs-port
// comparison per op and reports the measured speedup.
func BenchmarkExtensionSnapPort(b *testing.B) {
	cfg := snap.DefaultConfig()
	cfg.Octants = 4
	cfg.ZBlocks = 8
	var measured float64
	for i := 0; i < b.N; i++ {
		res, err := snap.ComparePort(cfg, 16, 8)
		if err != nil {
			b.Fatal(err)
		}
		measured = res.Measured()
	}
	b.ReportMetric(measured, "sim-speedup-x")
}

// BenchmarkExtensionUnequalCounts measures a native 16->4 repartitioned
// epoch per op.
func BenchmarkExtensionUnequalCounts(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	cfg := mpi.DefaultConfig(2)
	cfg.PartImpl = mpi.PartNative
	w := mpi.NewWorld(s, cfg)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 16, 64<<10)
		c.Barrier(p)
		for i := 0; i < b.N; i++ {
			pr.Start(p)
			for j := 0; j < 16; j++ {
				pr.Pready(p, j)
			}
			pr.Wait(p)
		}
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 4, 256<<10)
		c.Barrier(p)
		for i := 0; i < b.N; i++ {
			pr.Start(p)
			pr.Wait(p)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkExtensionClassicLatency measures the classic ping-pong benchmark
// harness itself.
func BenchmarkExtensionClassicLatency(b *testing.B) {
	cfg := classic.DefaultConfig()
	cfg.Iterations = 20
	cfg.Warmup = 2
	for i := 0; i < b.N; i++ {
		if _, err := classic.Latency(nil, cfg, []int64{8, 1 << 20}); err != nil {
			b.Fatal(err)
		}
	}
}

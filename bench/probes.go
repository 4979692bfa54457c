package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"partmb/internal/cluster"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/figures"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
	"partmb/internal/obs"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/remote"
	"partmb/internal/report"
	"partmb/internal/service"
	"partmb/internal/sim"
	"partmb/internal/snap"
)

// The probes are the per-layer ledger: each times a loop of calls into one
// layer's public API, the way the repository's own bench_test.go does, and
// reports the median ns per operation over probeReps repetitions. They run
// in the traced run, after the workload, and do not depend on it.

const (
	probeReps   = 5
	probeTarget = 30 * time.Millisecond // per repetition
)

// probe runs op(n) — n operations — and returns ns and heap allocations per
// operation. n is grown until one repetition lasts probeTarget.
func probe(op func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		runtime.GC()
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		if d >= probeTarget || n >= 1<<24 {
			break
		}
		grow := 100.0
		if d > 0 {
			grow = 1.2 * float64(probeTarget) / float64(d)
		}
		if grow < 2 {
			grow = 2
		} else if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}
	var ns, allocs []float64
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// must turns a probe's set-up error into a panic; runProbes recovers it into
// an ordinary error so a broken layer fails the run with its name.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// twoRanks runs fn0 and fn1 as ranks 0 and 1 of a fresh two-rank world.
func twoRanks(cfg mpi.Config, fn0, fn1 func(c *mpi.Comm, p *sim.Proc)) {
	s := sim.New()
	w := mpi.NewWorld(s, cfg)
	s.Spawn("r0", func(p *sim.Proc) { fn0(w.Comm(0), p) })
	s.Spawn("r1", func(p *sim.Proc) { fn1(w.Comm(1), p) })
	must(s.Run())
}

// pingPong is n round trips of size bytes between two ranks.
func pingPong(cfg mpi.Config, size int64, prelude func(c *mpi.Comm, p *sim.Proc)) func(n int) {
	return func(n int) {
		twoRanks(cfg,
			func(c *mpi.Comm, p *sim.Proc) {
				if prelude != nil {
					prelude(c, p)
				}
				for i := 0; i < n; i++ {
					c.SendBytes(p, 1, 0, size)
					c.Recv(p, 1, 1)
				}
			},
			func(c *mpi.Comm, p *sim.Proc) {
				if prelude != nil {
					prelude(c, p)
				}
				for i := 0; i < n; i++ {
					c.Recv(p, 0, 0)
					c.SendBytes(p, 0, 1, size)
				}
			})
	}
}

// partEpochs is n 16-partition epochs between two ranks.
func partEpochs(impl mpi.PartImpl) func(n int) {
	return func(n int) {
		cfg := mpi.DefaultConfig(2)
		cfg.PartImpl = impl
		twoRanks(cfg,
			func(c *mpi.Comm, p *sim.Proc) {
				c.SetPlacement(cluster.Place(cfg.Machine, 16))
				pr := c.PsendInit(p, 1, 0, 16, 4096)
				c.Barrier(p)
				for i := 0; i < n; i++ {
					pr.Start(p)
					for j := 0; j < 16; j++ {
						pr.Pready(p, j)
					}
					pr.Wait(p)
				}
			},
			func(c *mpi.Comm, p *sim.Proc) {
				pr := c.PrecvInit(p, 0, 0, 16, 4096)
				c.Barrier(p)
				for i := 0; i < n; i++ {
					pr.Start(p)
					pr.Wait(p)
				}
			})
	}
}

func probeSim(v map[string]float64) {
	v["sim.event_ns"], v["sim.event_allocs"] = probe(func(n int) {
		s := sim.New()
		s.Spawn("ticker", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(sim.Microsecond)
			}
		})
		must(s.Run())
	})
	v["sim.handoff_ns"], _ = probe(func(n int) {
		s := sim.New()
		var mu sim.Mutex
		cond := sim.NewCond(&mu)
		turn := 0
		side := func(me int) func(p *sim.Proc) {
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
		s.Spawn("a", side(0))
		s.Spawn("b", side(1))
		must(s.Run())
	})
	v["sim.spawn_ns"], _ = probe(func(n int) {
		s := sim.New()
		for i := 0; i < n; i++ {
			s.Spawn("p", func(p *sim.Proc) { p.Sleep(sim.Nanosecond) })
		}
		must(s.Run())
	})

	// One sharded run, Halo3D on 8x8x8 ranks over 4 shards: the counters are
	// the shard machinery's own account of what it did.
	var walls, events []float64
	var st *sim.ShardStats
	for r := 0; r < probeReps; r++ {
		runtime.GC()
		t0 := time.Now()
		res, err := patterns.RunHalo3D(patterns.HaloConfig{
			Nx: 8, Ny: 8, Nz: 8, ThreadsPerDim: 1, FaceBytes: 4096,
			Compute: 200 * sim.Microsecond, Repeats: 2, Mode: patterns.Single, Shards: 4,
		})
		must(err)
		walls = append(walls, float64(time.Since(t0)))
		if st = res.ShardRun(); st == nil {
			panic("sharded Halo3D reported no shard stats")
		}
		events = append(events, float64(st.Events))
	}
	v["sim.shard_events"] = float64(st.Events)
	v["sim.shard_windows"] = float64(st.Windows)
	v["sim.shard_steals"] = float64(st.Steals)
	v["sim.shard_merged"] = float64(st.Merged)
	v["sim.shard_merge_skips"] = float64(st.MergeSkips)
	v["sim.shard_imbalance"] = st.ImbalanceMean
	if st.ActualNS > 0 {
		d := float64(st.PredNS-st.ActualNS) / float64(st.ActualNS)
		if d < 0 {
			d = -d
		}
		v["sim.shard_pred_err"] = d
	}
	v["sim.shard_event_ns"] = median(walls) / median(events)
}

func probeMPI(v map[string]float64) {
	def := mpi.DefaultConfig(2)
	v["mpi.eager_rtt_ns"], v["mpi.eager_rtt_allocs"] = probe(pingPong(def, 1024, nil))
	v["mpi.rdv_rtt_ns"], _ = probe(pingPong(def, 1<<20, nil))
	v["mpi.part_epoch_ns"], v["mpi.part_epoch_allocs"] = probe(partEpochs(mpi.PartMPIPCL))
	v["mpi.part_native_epoch_ns"], _ = probe(partEpochs(mpi.PartNative))
	// Round trips behind 1024 unexpected messages nobody receives: every
	// receive walks or indexes past them.
	v["mpi.match_deep_ns"], _ = probe(pingPong(def, 1024, func(c *mpi.Comm, p *sim.Proc) {
		if c.Rank() == 0 {
			for t := 0; t < 1024; t++ {
				c.SendBytes(p, 1, 1000+t, 64)
			}
		}
		c.Barrier(p)
	}))
	// Eight threads per rank under THREAD_MULTIPLE, each its own ping-pong.
	v["mpi.mt_rtt_ns"], _ = probe(func(n int) {
		const threads = 8
		cfg := mpi.DefaultConfig(2)
		cfg.ThreadMode = mpi.Multiple
		s := sim.New()
		w := mpi.NewWorld(s, cfg)
		per := (n + threads - 1) / threads
		for rank := 0; rank < 2; rank++ {
			c := w.Comm(rank)
			c.SetPlacement(cluster.Place(cfg.Machine, threads))
			for t := 0; t < threads; t++ {
				e := c.Endpoint(t)
				rank, t := rank, t
				s.Spawn(fmt.Sprintf("r%dt%d", rank, t), func(p *sim.Proc) {
					for i := 0; i < per; i++ {
						if rank == 0 {
							e.SendBytes(p, 1, t, 1024)
							e.Recv(p, 1, 100+t)
						} else {
							e.Recv(p, 0, t)
							e.SendBytes(p, 0, 100+t, 1024)
						}
					}
				})
			}
		}
		must(s.Run())
	})
	v["mpi.allreduce64_ns"], _ = probe(func(n int) {
		s := sim.New()
		w := mpi.NewWorld(s, mpi.DefaultConfig(64))
		w.Launch("allreduce", func(c *mpi.Comm, p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Allreduce(p, 1024)
			}
		})
		must(s.Run())
	})
}

func probeNetsim(v map[string]float64) {
	v["netsim.inject_ns"], _ = probe(func(n int) {
		tx, rx := netsim.NewNIC(netsim.EDR()), netsim.NewNIC(netsim.EDR())
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			_, arrive := tx.Inject(now, 4096, 0)
			now = rx.Deliver(arrive)
		}
	})
	v["netsim.fabric_cross_ns"], _ = probe(func(n int) {
		const ranks = 1000
		f := netsim.NewFabric(netsim.NewDragonflyPlus(ranks/8, 900*sim.Nanosecond, 5*sim.Microsecond), ranks, 3e9)
		now := sim.Time(0)
		for i := 0; i < n; i++ {
			src := i % ranks
			now = now.Add(f.CrossDelay(now, src, (src+ranks/2)%ranks, 16384) / 64)
		}
	})
}

// coreCell is the core.Run cell of the core.* probes.
func coreCell(size int64, parts int) core.Config {
	return core.Config{
		MessageBytes: size, Partitions: parts, Compute: 10 * sim.Millisecond,
		Iterations: 10, Warmup: 2,
		Platform: platform.Niagara().WithNoise(noise.Uniform, 4).WithThreadMode(mpi.Multiple),
	}
}

func probeCells(v map[string]float64) {
	v["core.cell_ns"], v["core.cell_allocs"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, err := core.Run(coreCell(1<<20, 16))
			must(err)
		}
	})
	v["core.cell_small_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, err := core.Run(coreCell(1<<10, 1))
			must(err)
		}
	})
	spec := platform.Niagara().WithNoise(noise.SingleThread, 4)
	v["patterns.halo_cell_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, err := patterns.RunHalo3D(patterns.HaloConfig{
				Nx: 2, Ny: 2, Nz: 2, ThreadsPerDim: 2, FaceBytes: 256 << 10,
				Compute: 10 * sim.Millisecond, Repeats: 2, Mode: patterns.Partitioned, Platform: spec,
			})
			must(err)
		}
	})
	v["patterns.sweep_cell_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, err := patterns.RunSweep3D(patterns.SweepConfig{
				Px: 2, Py: 2, Threads: 4, BytesPerThread: 256 << 10,
				Compute: 10 * sim.Millisecond, ZBlocks: 2, Octants: 4, Repeats: 1,
				Mode: patterns.Partitioned, Platform: spec,
			})
			must(err)
		}
	})
	v["snap.cell_ns"], _ = probe(func(n int) {
		cfg := snap.DefaultConfig()
		cfg.Octants = 4
		for i := 0; i < n; i++ {
			_, err := snap.Profile(cfg, 8)
			must(err)
		}
	})
	// Simulated messages per host second at hundreds of ranks, one event
	// loop: the rate the scale-* workloads run at.
	rate := func(run func() (*patterns.Result, error)) float64 {
		var rates []float64
		for r := 0; r < 3; r++ {
			runtime.GC()
			t0 := time.Now()
			res, err := run()
			must(err)
			rates = append(rates, float64(res.Messages)/time.Since(t0).Seconds())
		}
		return median(rates)
	}
	v["patterns.halo512_msgs_per_s"] = rate(func() (*patterns.Result, error) {
		return patterns.RunHalo3D(patterns.HaloConfig{
			Nx: 8, Ny: 8, Nz: 8, ThreadsPerDim: 1, FaceBytes: 4096,
			Compute: 200 * sim.Microsecond, Repeats: 2, Mode: patterns.Single,
		})
	})
	v["patterns.sweep256_msgs_per_s"] = rate(func() (*patterns.Result, error) {
		return patterns.RunSweep3D(patterns.SweepConfig{
			Px: 16, Py: 16, Threads: 1, BytesPerThread: 16384,
			Compute: sim.Millisecond, ZBlocks: 2, Octants: 4, Repeats: 1, Mode: patterns.Single,
		})
	})
}

// smallSweep is 16 cheap cells (small messages, one iteration): engine work
// per cell is visible beside them.
func smallSweep(rn *engine.Runner, seed int64) {
	_, err := core.SweepMessageSizes(rn, core.Config{
		Partitions: 1, Iterations: 1, Warmup: -1,
		Platform: platform.Niagara().WithSeed(seed),
	}, pow2Sizes(1<<10, 32<<20))
	must(err)
}

func probeEngine(v map[string]float64, tmp string) {
	keyCfg := coreCell(1<<20, 16)
	v["engine.key_ns"], v["engine.key_allocs"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, err := engine.Key("core.Run", keyCfg)
			must(err)
		}
	})
	nop := func() (any, error) { return 1, nil }
	v["engine.miss_overhead_ns"], _ = probe(func(n int) {
		rn := engine.New(engine.Workers(1))
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
		}
		for i := 0; i < n; i++ {
			rn.Do(keys[i], nop)
		}
	})
	v["engine.memo_hit_ns"], _ = probe(func(n int) {
		rn := engine.New(engine.Workers(1))
		for i := 0; i < n; i++ {
			rn.Do("k", nop)
		}
	})
	v["engine.map_cell_ns"], _ = probe(func(n int) {
		rn := engine.New(engine.Workers(2), engine.WithoutCache())
		_, err := rn.Map(context.Background(), n, func(context.Context, int) (any, error) { return 1, nil })
		must(err)
	})

	// Disk cache, measured from outside through a sweep of cheap cells: a
	// warm sweep in a fresh runner is key + read + decode per cell; a cold
	// sweep with a cache minus one without is the write.
	dir, err := os.MkdirTemp(tmp, "probe-disk-")
	must(err)
	defer os.RemoveAll(dir)
	const cells = 16
	sweepNS := func(opts func() []engine.Option, seed func(r int) int64) float64 {
		var ns []float64
		for r := 0; r < 2*probeReps; r++ {
			rn := engine.New(opts()...)
			runtime.GC()
			t0 := time.Now()
			smallSweep(rn, seed(r))
			ns = append(ns, float64(time.Since(t0))/cells)
		}
		return median(ns)
	}
	withDisk := func() []engine.Option {
		dc, err := engine.OpenDiskCache(dir)
		must(err)
		return []engine.Option{engine.Workers(1), engine.WithDiskCache(dc)}
	}
	memoOnly := func() []engine.Option { return []engine.Option{engine.Workers(1)} }
	coldDisk := sweepNS(withDisk, func(r int) int64 { return int64(1000 + r) })
	coldMemo := sweepNS(memoOnly, func(r int) int64 { return int64(2000 + r) })
	v["engine.disk_write_ns"] = coldDisk - coldMemo
	v["engine.disk_hit_ns"] = sweepNS(withDisk, func(int) int64 { return 1000 }) // seed 1000 is on disk
}

func probeFigures(v map[string]float64) {
	rn := engine.New(engine.Workers(2))
	env := figures.Env{Runner: rn, Spec: platform.Niagara().WithSeed(1)}
	sc := frozenQuick()
	var tables []*report.Table
	regen := func() {
		tables = tables[:0]
		for _, fig := range figureNumbers {
			ts, err := env.Generate(fig, sc)
			must(err)
			tables = append(tables, ts...)
		}
	}
	regen() // fills the memo; every later pass is hits only
	v["figures.memo_regen_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			regen()
		}
	})
	v["report.text_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			must(report.WriteAllText(io.Discard, tables))
		}
	})
	v["report.csv_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			for _, t := range tables {
				must(t.WriteCSV(io.Discard))
			}
		}
	})
}

func probeObs(v map[string]float64, tmp string) {
	ev := engine.CellEvent{Experiment: "fig04", Key: "0123456789abcdef", Source: engine.SourceRun, Attempts: 1, Host: time.Millisecond}
	v["obs.cell_event_ns"], _ = probe(func(n int) {
		col := obs.NewCollector()
		for i := 0; i < n; i++ {
			col.CellDone(ev)
		}
	})
	v["obs.journal_cell_ns"], _ = probe(func(n int) {
		col := obs.NewCollector()
		for i := 0; i < 256; i++ {
			col.CellDone(ev)
		}
		for i := 0; i < (n+255)/256; i++ {
			must(obs.WriteJournal(io.Discard, "bench", col, false))
		}
	})
	// The price of observing: a figs-cold pass with a collector attached over
	// one without, alternating.
	dir, err := os.MkdirTemp(tmp, "probe-obs-")
	must(err)
	defer os.RemoveAll(dir)
	var on, off []float64
	for r := 0; r < 6; r++ {
		dc, err := openCache(dir, fmt.Sprintf("c%d", r))
		must(err)
		opts := []engine.Option{engine.Workers(2), engine.WithDiskCache(dc)}
		if r%2 == 1 {
			opts = append(opts, engine.WithObserver(obs.NewCollector()))
		}
		runtime.GC()
		t0 := time.Now()
		_, err = figuresPass(engine.New(opts...), nil, 1, figureNumbers, &meter{root: -1})
		must(err)
		if d := time.Since(t0).Seconds(); r%2 == 1 {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	v["obs.on_overhead_frac"] = median(on)/median(off) - 1
}

func probeService(v map[string]float64, tmp string) {
	body := sweepSpec(7)
	var spec service.Spec
	must(json.Unmarshal(body, &spec))
	v["service.resolve_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			_, err := spec.Resolve()
			must(err)
		}
	})
	rq, err := spec.Resolve()
	must(err)
	results, err := rq.Run(engine.New(engine.Workers(2)))
	must(err)
	v["service.render_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			must(rq.Table(results).WriteText(io.Discard))
		}
	})
	// The handler on a cached spec, without TCP: decode, resolve, 14 disk
	// reads, render.
	dir, err := os.MkdirTemp(tmp, "probe-svc-")
	must(err)
	defer os.RemoveAll(dir)
	dc, err := engine.OpenDiskCache(dir)
	must(err)
	fan := engine.NewFanOut()
	srv := service.New(service.Config{
		Runner: engine.New(engine.Workers(2), engine.WithDiskCache(dc), engine.WithSingleFlight(), engine.WithObserver(fan)),
		Fan:    fan, Disk: dc,
	})
	serve := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			panic(fmt.Sprintf("handler probe: status %d: %s", rec.Code, rec.Body))
		}
	}
	serve() // fills the cache
	v["service.handler_hit_ns"], v["service.handler_hit_allocs"] = probe(func(n int) {
		for i := 0; i < n; i++ {
			serve()
		}
	})
}

var registerNoop sync.Once

func probeRemote(v map[string]float64) {
	registerNoop.Do(func() {
		remote.RegisterKind("bench.noop", func(json.RawMessage) (any, error) { return 1, nil })
	})
	fl, err := startFleet(1)
	must(err)
	defer fl.stop()
	seq := 0
	v["remote.task_rtt_ns"], _ = probe(func(n int) {
		for i := 0; i < n; i++ {
			seq++
			_, err := fl.coord.Execute(context.Background(), engine.RemoteTask{
				Key: fmt.Sprintf("noop-%d", seq), Kind: "bench.noop", Config: json.RawMessage(`{}`),
			})
			must(err)
		}
	})
}

// runProbes runs every probe and returns the per-layer values they produce.
func runProbes(tmp string) (v map[string]float64, err error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	v = map[string]float64{}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe failed: %v", r)
		}
	}()
	probeSim(v)
	probeMPI(v)
	probeNetsim(v)
	probeCells(v)
	probeEngine(v, tmp)
	probeFigures(v)
	probeObs(v, tmp)
	probeService(v, tmp)
	probeRemote(v)
	return v, nil
}

// printProbes is the -probes mode: the ledger alone, one metric per line.
func printProbes(w io.Writer, v map[string]float64) {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, v[name], units[name])
	}
}

package main

import (
	"flag"
	"fmt"
	"strings"

	"partmb/internal/cluster"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/report"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// A study builds one extension table; the p2p studies take the -samples
// run configuration (nil = fixed repetitions) through metricCfg.
type study func(rn *engine.Runner, adaptive *stats.RunConfig) (*report.Table, error)

// extensionStudies lists the studies in the order -study all runs them.
var extensionStudies = []struct {
	name string
	run  study
}{
	{"impl", studyImpl},
	{"unequal", studyUnequal},
	{"overlap", studyOverlap},
	{"pbcast", studyPBcast},
	{"topology", studyTopology},
	{"platform", studyPlatform},
	{"pinning", studyPinning},
}

// extensionsVerb runs the studies this repository adds beyond the paper's
// evaluation, each tied to an item from the paper's future-work section
// (§6.1):
//
//   - impl:     layered (MPIPCL) vs native partitioned implementation
//     ("once other MPI implementations are sufficiently mature, it would be
//     useful to compare them");
//   - unequal:  different partition counts on the two sides (the MPIPCL
//     restriction the paper could not explore);
//   - overlap:  receive-side consumption pipelining via MPI_Parrived /
//     per-partition waits (receive-side partitioned communication);
//   - pbcast:   partitioned collectives (partitioned broadcast pipelining);
//   - topology: single-wing vs cross-wing Dragonfly+ placement;
//   - platform: the partition-count guidance on other hardware;
//   - pinning:  compact vs scatter thread placement.
func extensionsVerb(fs *flag.FlagSet) func(*cli) error {
	which := fs.String("study", "all", "study to run: impl|unequal|overlap|pbcast|topology|platform|pinning|all")
	return func(c *cli) error {
		var names []string
		for _, s := range extensionStudies {
			names = append(names, s.name)
		}
		run := extensionStudies
		if *which != "all" {
			run = nil
			for _, s := range extensionStudies {
				if s.name == *which {
					run = append(run, s)
				}
			}
			if run == nil {
				return fmt.Errorf("unknown study %q (want %s|all)", *which, strings.Join(names, "|"))
			}
		}
		adaptive, err := c.eng.RunConfig()
		if err != nil {
			return err
		}
		rn, err := c.runner("")
		if err != nil {
			return err
		}
		for _, s := range run {
			rn.SetExperiment("extensions/" + s.name)
			t, err := s.run(rn, adaptive)
			if err != nil {
				return err
			}
			if err := t.WriteText(c.stdout); err != nil {
				return err
			}
		}
		return nil
	}
}

// metricCfg is the shared benchmark point for the p2p studies.
func metricCfg(adaptive *stats.RunConfig) core.Config {
	return core.Config{
		MessageBytes: 1 << 20,
		Partitions:   16,
		Compute:      10 * sim.Millisecond,
		Iterations:   6,
		Warmup:       2,
		Platform:     platform.Niagara().WithNoise(noise.Uniform, 4).WithThreadMode(mpi.Multiple),
		Adaptive:     adaptive,
	}
}

// studyImpl compares the layered and native implementations across sizes.
func studyImpl(rn *engine.Runner, adaptive *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: layered (MPIPCL) vs native partitioned implementation — overhead t_part/t_pt2pt, 16 partitions, no noise",
		"size", "mpipcl", "native", "native gain")
	for _, size := range core.MessageSizes(16<<10, 16<<20) {
		row := []interface{}{core.FormatBytes(size)}
		var overheads []float64
		for _, impl := range []mpi.PartImpl{mpi.PartMPIPCL, mpi.PartNative} {
			cfg := metricCfg(adaptive)
			cfg.MessageBytes = size
			cfg.Platform = cfg.Platform.WithNoise(noise.None, 0).WithImpl(impl)
			res, err := core.RunCached(rn, cfg)
			if err != nil {
				return nil, err
			}
			overheads = append(overheads, res.Overhead)
			row = append(row, res.Overhead)
		}
		row = append(row, overheads[0]/overheads[1])
		t.AddF(row...)
	}
	return t, nil
}

// studyUnequal exercises MPI 4.0 unequal partition counts (native impl).
func studyUnequal(*engine.Runner, *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: unequal send/receive partitioning (native impl), 1MiB total, Preadys staggered 100us",
		"send parts", "recv parts", "t_part")
	total := int64(1 << 20)
	layouts := [][2]int{{16, 16}, {16, 4}, {4, 16}, {32, 8}, {8, 32}}
	for _, lay := range layouts {
		span, err := epochSpan(mpi.PartNative, nil, total, lay[0], lay[1], 100*sim.Microsecond)
		if err != nil {
			return nil, err
		}
		t.AddF(lay[0], lay[1], span.String())
	}
	return t, nil
}

// studyOverlap sweeps receive-side consumer work.
func studyOverlap(_ *engine.Runner, adaptive *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: receive-side overlap via per-partition waits — 64MiB, 16 partitions, uniform 4% noise",
		"consume/partition", "baseline", "partitioned", "speedup")
	cfg := metricCfg(adaptive)
	cfg.MessageBytes = 64 << 20
	cfg.Compute = 5 * sim.Millisecond
	for _, consume := range []sim.Duration{0, 500 * sim.Microsecond, 2 * sim.Millisecond, 5 * sim.Millisecond} {
		res, err := core.RunConsume(cfg, consume)
		if err != nil {
			return nil, err
		}
		t.AddF(consume.String(), res.Baseline.String(), res.Partitioned.String(), res.Speedup())
	}
	return t, nil
}

// studyPBcast measures partitioned-broadcast pipelining: time until the
// deepest rank holds all partitions, vs a non-partitioned broadcast that
// can only start after the root's last thread finishes.
func studyPBcast(*engine.Runner, *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: partitioned broadcast (8 ranks, 8 partitions of 128KiB, root threads staggered 1ms)",
		"variant", "deepest rank: first partition", "deepest rank: complete")
	const (
		ranks     = 8
		parts     = 8
		partBytes = int64(128 << 10)
		stagger   = sim.Millisecond
	)

	// Partitioned: partitions flow down the tree as they are readied.
	pbFirst, pbLast, err := pbcastArrivals(ranks, parts, partBytes, stagger)
	if err != nil {
		return nil, err
	}
	t.AddF("partitioned pbcast", pbFirst.String(), pbLast.String())

	// Baseline: classic Bcast of the whole payload after the last Pready
	// (the root's threads must all finish first).
	s := sim.New()
	w := mpi.NewWorld(s, mpi.DefaultConfig(ranks))
	var done sim.Time
	w.Launch("bcast", func(c *mpi.Comm, p *sim.Proc) {
		c.Barrier(p)
		if c.Rank() == 0 {
			p.Sleep(sim.Duration(parts) * stagger) // wait for every producer
		}
		c.Bcast(p, 0, int64(parts)*partBytes)
		if c.Rank() == ranks-1 {
			done = p.Now()
		}
	})
	if err := s.Run(); err != nil {
		return nil, err
	}
	// The single broadcast delivers everything at once: first == last.
	t.AddF("single bcast after join", sim.Duration(done).String(), sim.Duration(done).String())
	return t, nil
}

// pbcastArrivals runs a partitioned broadcast and returns when the deepest
// rank receives its first and last partitions.
func pbcastArrivals(ranks, parts int, partBytes int64, stagger sim.Duration) (first, last sim.Duration, err error) {
	s := sim.New()
	w := mpi.NewWorld(s, mpi.DefaultConfig(ranks))
	var firstAt, lastAt sim.Time
	w.Launch("pbcast", func(c *mpi.Comm, p *sim.Proc) {
		pb := c.PBcastInit(p, 0, parts, partBytes)
		c.Barrier(p)
		pb.Start(p)
		if pb.Root() {
			for i := 0; i < parts; i++ {
				p.Sleep(stagger)
				pb.Pready(p, i)
			}
		}
		pb.Wait(p)
		if c.Rank() == ranks-1 {
			firstAt = pb.ArrivedAt(0)
			for i := 0; i < parts; i++ {
				at := pb.ArrivedAt(i)
				if at < firstAt {
					firstAt = at
				}
				if at > lastAt {
					lastAt = at
				}
			}
		}
	})
	if err := s.Run(); err != nil {
		return 0, 0, err
	}
	return sim.Duration(firstAt), sim.Duration(lastAt), nil
}

// studyTopology compares intra-wing and cross-wing partitioned transfers.
func studyTopology(_ *engine.Runner, adaptive *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: Dragonfly+ placement — 1MiB, 16 partitions, overhead by wing placement",
		"placement", "overhead", "availability")
	for _, cross := range []bool{false, true} {
		cfg := metricCfg(adaptive)
		net := netsim.EDR()
		cfg.Platform = cfg.Platform.WithNet(net)
		// Wings of 2 ranks: the benchmark's pair either shares a wing or
		// crosses wings depending on the wing size parity trick below.
		if cross {
			// Wing size 1: every pair crosses wings.
			topo := netsim.NewDragonflyPlus(1, net.Latency, net.Latency+2*sim.Microsecond)
			res, err := runWithTopology(cfg, topo)
			if err != nil {
				return nil, err
			}
			t.AddF("cross-wing (+2us)", res.Overhead, res.Availability)
			continue
		}
		topo := netsim.NewDragonflyPlus(2, net.Latency, net.Latency+2*sim.Microsecond)
		res, err := runWithTopology(cfg, topo)
		if err != nil {
			return nil, err
		}
		t.AddF("single wing", res.Overhead, res.Availability)
	}
	return t, nil
}

// studyPinning compares the compact (paper) and scatter thread-placement
// policies: compact spills past one socket only above 20 threads; scatter
// balances sockets but puts half the threads away from the NIC at every
// count.
func studyPinning(*engine.Runner, *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: thread pinning policy — t_part for 16x64KiB partitions, no noise",
		"threads/partitions", "compact", "scatter")
	for _, parts := range []int{8, 16, 32} {
		row := []interface{}{parts}
		for _, policy := range []cluster.Policy{cluster.Compact, cluster.Scatter} {
			span, err := epochSpan(mpi.PartMPIPCL, cluster.PlaceWith(cluster.Niagara(), parts, policy), int64(parts)*64<<10, parts, parts, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, span.String())
		}
		t.AddF(row...)
	}
	return t, nil
}

// epochSpan measures one two-rank partitioned epoch of total bytes, from
// the first Pready to the last arrival: the sender readies sendParts
// partitions, after gap each when gap > 0, into a receive of recvParts
// partitions. place, when non-nil, lays out the sender's threads.
func epochSpan(impl mpi.PartImpl, place *cluster.Placement, total int64, sendParts, recvParts int, gap sim.Duration) (sim.Duration, error) {
	s := sim.New()
	cfg := mpi.DefaultConfig(2)
	cfg.PartImpl = impl
	w := mpi.NewWorld(s, cfg)
	if place != nil {
		w.Comm(0).SetPlacement(place)
	}
	var spr, rpr *mpi.PRequest
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		spr = c.PsendInit(p, 1, 0, sendParts, total/int64(sendParts))
		c.Barrier(p)
		spr.Start(p)
		for i := 0; i < sendParts; i++ {
			if gap > 0 {
				p.Sleep(gap)
			}
			spr.Pready(p, i)
		}
		spr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		rpr = c.PrecvInit(p, 0, 0, recvParts, total/int64(recvParts))
		c.Barrier(p)
		rpr.Start(p)
		rpr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		return 0, err
	}
	return rpr.LastArriveAt().Sub(spr.FirstReadyAt()), nil
}

// runWithTopology is core.Run of cfg under single-thread 4% noise on the
// given topology (core.Config.Topology).
func runWithTopology(cfg core.Config, topo netsim.Topology) (*core.Result, error) {
	cfg.Platform = cfg.Platform.WithNoise(noise.SingleThread, 4)
	cfg.Topology = topo
	return core.Run(cfg)
}

// studyPlatform reruns the paper's partition-count guidance on different
// hardware: the 32-partition socket-spillover step disappears on a
// 64-core-per-socket EPYC node, and HDR's doubled bandwidth moves the
// large-message overhead knee.
func studyPlatform(rn *engine.Runner, adaptive *stats.RunConfig) (*report.Table, error) {
	t := report.New(
		"Extension: platform portability of the guidance — overhead at 64KiB, no noise, by partition count",
		"platform", "p=8", "p=16", "p=32", "p=64")
	type hw struct {
		name string
		spec *platform.Spec
	}
	platforms := []hw{
		{"niagara+EDR (paper)", platform.Niagara()},
		{"epyc+EDR", platform.EpycEDR()},
		{"niagara+HDR", platform.NiagaraHDR()},
		{"epyc+HDR", platform.EpycHDR()},
	}
	for _, pf := range platforms {
		row := []interface{}{pf.name}
		for _, parts := range []int{8, 16, 32, 64} {
			cfg := metricCfg(adaptive)
			cfg.MessageBytes = 64 << 10
			cfg.Partitions = parts
			cfg.Platform = pf.spec.WithNoise(noise.None, 0).WithThreadMode(mpi.Multiple)
			res, err := core.RunCached(rn, cfg)
			if err != nil {
				return nil, err
			}
			row = append(row, res.Overhead)
		}
		t.AddF(row...)
	}
	return t, nil
}

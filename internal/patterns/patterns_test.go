package patterns

import (
	"testing"

	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

// sweepCfg returns a small Sweep3D config that runs fast.
func sweepCfg(mode Mode) SweepConfig {
	return SweepConfig{
		Px: 2, Py: 2,
		Threads:        4,
		BytesPerThread: 64 << 10,
		Compute:        500 * sim.Microsecond,
		ZBlocks:        2,
		Octants:        4,
		Repeats:        1,
		Mode:           mode,
		Platform:       platform.Niagara().WithNoise(noise.SingleThread, 4).WithImpl(mpi.PartMPIPCL),
	}
}

func TestSweep3DAllModesComplete(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := RunSweep3D(sweepCfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("elapsed = %v", res.Elapsed)
			}
			if res.PayloadBytes <= 0 || res.Messages <= 0 {
				t.Fatalf("no traffic recorded: %+v", res)
			}
			if res.Throughput() <= 0 {
				t.Fatal("zero throughput")
			}
			if res.String() == "" {
				t.Fatal("empty String()")
			}
		})
	}
}

func TestSweep3DWeakScalingMovesMoreData(t *testing.T) {
	// 16 threads move 4x the data of 4 threads (weak scaling) in the
	// threaded modes.
	small := sweepCfg(Multi)
	big := small
	big.Threads = 16
	a, err := RunSweep3D(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep3D(big)
	if err != nil {
		t.Fatal(err)
	}
	if b.PayloadBytes != 4*a.PayloadBytes {
		t.Fatalf("payload: 16 threads moved %d, want 4x of %d", b.PayloadBytes, a.PayloadBytes)
	}
}

func TestSweep3DPartitionedBeatsSingleLargeMessages(t *testing.T) {
	// The headline Sweep3D result (Fig 9): for large messages, partitioned
	// with many threads yields far higher throughput than single-threaded.
	base := sweepCfg(Partitioned)
	base.Threads = 16
	base.BytesPerThread = 1 << 20
	base.Compute = 2 * sim.Millisecond
	part, err := RunSweep3D(base)
	if err != nil {
		t.Fatal(err)
	}
	singleCfg := base
	singleCfg.Mode = Single
	single, err := RunSweep3D(singleCfg)
	if err != nil {
		t.Fatal(err)
	}
	gain := part.Throughput() / single.Throughput()
	if gain < 3 {
		t.Fatalf("partitioned/single throughput = %.2fx, want a large win", gain)
	}
}

func TestSweep3DDeterministic(t *testing.T) {
	a, err := RunSweep3D(sweepCfg(Partitioned))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep3D(sweepCfg(Partitioned))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.PayloadBytes != b.PayloadBytes {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestSweepValidate(t *testing.T) {
	bad := []func(*SweepConfig){
		func(c *SweepConfig) { c.Px = 0 },
		func(c *SweepConfig) { c.Threads = -1 },
		func(c *SweepConfig) { c.BytesPerThread = 0 },
		func(c *SweepConfig) { c.Octants = 9 },
		func(c *SweepConfig) { c.Compute = -1 },
	}
	for i, mutate := range bad {
		cfg := sweepCfg(Multi).withDefaults()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad sweep config %d accepted", i)
		}
	}
}

func TestOctantDirections(t *testing.T) {
	seen := map[[2]int]int{}
	for o := 0; o < 8; o++ {
		dx, dy := octantDir(o)
		if dx*dx != 1 || dy*dy != 1 {
			t.Fatalf("octant %d direction (%d,%d)", o, dx, dy)
		}
		seen[[2]int{dx, dy}]++
	}
	if len(seen) != 4 {
		t.Fatalf("octants cover %d corners, want 4", len(seen))
	}
	for corner, n := range seen {
		if n != 2 {
			t.Fatalf("corner %v used %d times, want 2 (both z directions)", corner, n)
		}
	}
}

// haloCfg returns a small Halo3D config.
func haloCfg(mode Mode) HaloConfig {
	return HaloConfig{
		Nx: 2, Ny: 2, Nz: 2,
		ThreadsPerDim: 2, // 8 threads, 4 partitions per face
		FaceBytes:     256 << 10,
		Compute:       500 * sim.Microsecond,
		Repeats:       2,
		Mode:          mode,
		Platform:      platform.Niagara().WithNoise(noise.SingleThread, 4).WithImpl(mpi.PartMPIPCL),
	}
}

func TestHalo3DAllModesComplete(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := RunHalo3D(haloCfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 || res.PayloadBytes <= 0 {
				t.Fatalf("bad result: %+v", res)
			}
		})
	}
}

func TestHalo3DPayloadAccounting(t *testing.T) {
	// Each of the 8 ranks sends 6 faces x FaceBytes x Repeats.
	cfg := haloCfg(Single)
	res, err := RunHalo3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(8) * 6 * cfg.FaceBytes * int64(cfg.Repeats)
	if res.PayloadBytes != want {
		t.Fatalf("payload = %d, want %d", res.PayloadBytes, want)
	}
}

func TestHalo3DOversubscribed64Threads(t *testing.T) {
	// The paper's 64-thread configuration oversubscribes the 40-core node;
	// the run must still complete, slower per unit compute than 8 threads.
	cfg := haloCfg(Partitioned)
	cfg.ThreadsPerDim = 4 // 64 threads, 16 partitions per face
	cfg.FaceBytes = 1 << 20
	res, err := RunHalo3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	// Oversubscribed compute takes at least 2x the nominal per-step time.
	minCompute := sim.Duration(cfg.Repeats) * 2 * cfg.Compute
	if res.Elapsed < minCompute {
		t.Fatalf("elapsed %v shorter than oversubscribed compute floor %v", res.Elapsed, minCompute)
	}
}

func TestHalo3DFaceOwnership(t *testing.T) {
	// Every face partition must be owned by exactly one thread.
	owners := map[[2]int]int{} // (face, part) -> count
	interior := 0
	for _, faces := range faceBorders(4) {
		if len(faces) == 0 {
			interior++
		}
		for _, b := range faces {
			owners[[2]int{b.face, b.part}]++
		}
	}
	if interior != 8 {
		t.Fatalf("interior threads = %d, want 8 (2x2x2 core)", interior)
	}
	for f := 0; f < numFaces; f++ {
		for pt := 0; pt < 16; pt++ {
			if owners[[2]int{f, pt}] != 1 {
				t.Fatalf("face %d partition %d owned %d times", f, pt, owners[[2]int{f, pt}])
			}
		}
	}
}

func TestHaloValidate(t *testing.T) {
	bad := []func(*HaloConfig){
		func(c *HaloConfig) { c.Nx = 0 },
		func(c *HaloConfig) { c.ThreadsPerDim = 0 },
		func(c *HaloConfig) { c.FaceBytes = 0 },
		func(c *HaloConfig) { c.FaceBytes = 1023 }, // not divisible by 4
		func(c *HaloConfig) { c.Repeats = 0 },
	}
	for i, mutate := range bad {
		cfg := haloCfg(Multi).withDefaults()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad halo config %d accepted", i)
		}
	}
}

func TestHalo3DDeterministic(t *testing.T) {
	a, err := RunHalo3D(haloCfg(Multi))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHalo3D(haloCfg(Multi))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.PayloadBytes != b.PayloadBytes {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"single": Single, "multi": Multi, "partitioned": Partitioned, "PART": Partitioned} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("quantum"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}

func TestHalo3DNativeImpl(t *testing.T) {
	cfg := haloCfg(Partitioned)
	cfg.Platform = cfg.Platform.WithImpl(mpi.PartNative)
	res, err := RunHalo3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytes <= 0 {
		t.Fatal("native halo moved no data")
	}
}

func TestSweep3DNativeImpl(t *testing.T) {
	cfg := sweepCfg(Partitioned)
	cfg.Platform = cfg.Platform.WithImpl(mpi.PartNative)
	res, err := RunSweep3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytes <= 0 {
		t.Fatal("native sweep moved no data")
	}
}

package patterns

import (
	"testing"

	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

func halo2dCfg(mode Mode) Halo2DConfig {
	return Halo2DConfig{
		Nx: 3, Ny: 3,
		ThreadsPerDim: 4, // 16 threads, 4 partitions per edge
		EdgeBytes:     128 << 10,
		Compute:       500 * sim.Microsecond,
		Repeats:       2,
		Mode:          mode,
		Platform:      platform.Niagara().WithNoise(noise.SingleThread, 4).WithImpl(mpi.PartMPIPCL),
	}
}

func TestHalo2DAllModesComplete(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			res, err := runHalo2D(nil, halo2dCfg(mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 || res.PayloadBytes <= 0 {
				t.Fatalf("bad result: %+v", res)
			}
		})
	}
}

func TestHalo2DPayloadAccounting(t *testing.T) {
	cfg := halo2dCfg(Single)
	res, err := runHalo2D(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(9) * 4 * cfg.EdgeBytes * int64(cfg.Repeats)
	if res.PayloadBytes != want {
		t.Fatalf("payload = %d, want %d", res.PayloadBytes, want)
	}
}

func TestHalo2DEdgeOwnership(t *testing.T) {
	owners := map[[2]int]int{}
	interior := 0
	for _, edges := range edgeBorders(4) {
		if len(edges) == 0 {
			interior++
		}
		for _, b := range edges {
			owners[[2]int{b.face, b.part}]++
		}
	}
	if interior != 4 {
		t.Fatalf("interior threads = %d, want 4 (2x2 core)", interior)
	}
	for e := 0; e < numEdges; e++ {
		for pt := 0; pt < 4; pt++ {
			if owners[[2]int{e, pt}] != 1 {
				t.Fatalf("edge %d partition %d owned %d times", e, pt, owners[[2]int{e, pt}])
			}
		}
	}
}

func TestHalo2DValidate(t *testing.T) {
	bad := []func(*Halo2DConfig){
		func(c *Halo2DConfig) { c.Nx = 0 },
		func(c *Halo2DConfig) { c.ThreadsPerDim = 0 },
		func(c *Halo2DConfig) { c.EdgeBytes = 0 },
		func(c *Halo2DConfig) { c.EdgeBytes = 127 }, // not divisible by 4
		func(c *Halo2DConfig) { c.Repeats = 0 },
		func(c *Halo2DConfig) { c.Compute = -1 },
	}
	for i, mutate := range bad {
		cfg := halo2dCfg(Multi).withDefaults()
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad halo2d config %d accepted", i)
		}
	}
}

func TestHalo2DDeterministic(t *testing.T) {
	a, err := runHalo2D(nil, halo2dCfg(Partitioned))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runHalo2D(nil, halo2dCfg(Partitioned))
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.PayloadBytes != b.PayloadBytes {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestHalo2DNativeImpl(t *testing.T) {
	cfg := halo2dCfg(Partitioned)
	cfg.Platform = cfg.Platform.WithImpl(mpi.PartNative)
	res, err := runHalo2D(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PayloadBytes <= 0 {
		t.Fatal("native halo2d moved no data")
	}
}

package noise

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"partmb/internal/sim"
)

const base = 10 * sim.Millisecond

func TestNoneIsExact(t *testing.T) {
	m := New(None, 0, 1, nil)
	for _, d := range m.Region(16, base) {
		if d != base {
			t.Fatalf("no-noise compute = %v, want %v", d, base)
		}
	}
}

func TestZeroPercentIsExactForAllKinds(t *testing.T) {
	for _, k := range []Kind{SingleThread, Uniform, Gaussian} {
		m := New(k, 0, 1, nil)
		for _, d := range m.Region(8, base) {
			if d != base {
				t.Fatalf("%v at 0%%: compute = %v, want %v", k, d, base)
			}
		}
	}
}

func TestSingleThreadDelaysExactlyOne(t *testing.T) {
	m := New(SingleThread, 4, 42, nil)
	region := m.Region(16, base)
	delayed := 0
	for _, d := range region {
		switch {
		case d == base:
		case d == base+sim.Duration(0.04*float64(base)):
			delayed++
		default:
			t.Fatalf("unexpected compute %v", d)
		}
	}
	if delayed != 1 {
		t.Fatalf("threads delayed = %d, want exactly 1", delayed)
	}
}

func TestSingleThreadVictimVaries(t *testing.T) {
	m := New(SingleThread, 4, 7, nil)
	victims := make(map[int]bool)
	for trial := 0; trial < 50; trial++ {
		for i, d := range m.Region(8, base) {
			if d > base {
				victims[i] = true
			}
		}
	}
	if len(victims) < 2 {
		t.Fatalf("victim never varies across trials: %v", victims)
	}
}

func TestUniformBounds(t *testing.T) {
	m := New(Uniform, 10, 99, nil)
	hi := base + sim.Duration(0.10*float64(base))
	for trial := 0; trial < 100; trial++ {
		for _, d := range m.Region(8, base) {
			if d < base || d > hi {
				t.Fatalf("uniform sample %v outside [%v,%v]", d, base, hi)
			}
		}
	}
}

func TestGaussianMeanAndSpread(t *testing.T) {
	m := New(Gaussian, 4, 5, nil)
	var sum float64
	n := 0
	for trial := 0; trial < 500; trial++ {
		for _, d := range m.Region(4, base) {
			sum += float64(d)
			n++
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean-float64(base)) > 0.02*float64(base) {
		t.Fatalf("gaussian mean = %v, want about %v", sim.Duration(mean), base)
	}
}

func TestGaussianNeverNonPositive(t *testing.T) {
	// Absurd noise: 1000% stddev would often sample negative durations;
	// the model must floor them.
	m := New(Gaussian, 1000, 3, nil)
	for trial := 0; trial < 200; trial++ {
		for _, d := range m.Region(4, base) {
			if d <= 0 {
				t.Fatalf("gaussian produced non-positive compute %v", d)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(Uniform, 4, 12345, nil)
	b := New(Uniform, 4, 12345, nil)
	for trial := 0; trial < 10; trial++ {
		ra, rb := a.Region(8, base), b.Region(8, base)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("same seed diverged at trial %d thread %d", trial, i)
			}
		}
	}
}

// A model builds its generator on the first draw, and it draws the stream a
// generator seeded up front with the same seed draws. A model that never
// draws — kind None, or 0 % — never builds one.
func TestSourceBuiltOnFirstDraw(t *testing.T) {
	const seed = 12345
	for _, kind := range []Kind{None, SingleThread, Uniform, Gaussian, Periodic} {
		lazy, eager := New(kind, 10, seed, nil), New(kind, 10, seed, nil)
		eager.rng = rand.New(rand.NewSource(seed))
		if lazy.rng != nil {
			t.Fatalf("%v: New built a source before any draw", kind)
		}
		for trial := 0; trial < 20; trial++ {
			if a, b := lazy.Region(8, base), eager.Region(8, base); !slices.Equal(a, b) {
				t.Fatalf("%v trial %d: lazy source drew %v, seeded one %v", kind, trial, a, b)
			}
		}
		if built := lazy.rng != nil; built != (kind != None) {
			t.Errorf("%v at 10%%: source built = %v after 20 regions", kind, built)
		}
	}
	for _, m := range []*Model{New(None, 4, seed, nil), New(SingleThread, 0, seed, nil), New(Uniform, 0, seed, nil),
		New(Gaussian, 0, seed, nil), New(Periodic, 0, seed, nil)} {
		m.Region(8, base)
		if m.rng != nil {
			t.Errorf("%v at %v%% built a source it never draws from", m.kind, 100*m.percent)
		}
	}
}

// Models built for an arena draw what models with fresh sources draw, cell
// after cell, though each cell's models take the generators the previous
// cell's models drew from.
func TestArenaModelsDrawFreshStreams(t *testing.T) {
	var a sim.Arena
	defer a.Close()
	for cell := 0; cell < 4; cell++ {
		a.New()
		for rank := int64(0); rank < 3; rank++ {
			kind := []Kind{SingleThread, Uniform, Gaussian, Periodic}[(cell+int(rank))%4]
			seed := 100*int64(cell) + rank
			onArena, fresh := New(kind, 10, seed, &a), New(kind, 10, seed, nil)
			for trial := 0; trial < 5; trial++ {
				if got, want := onArena.Region(8, base), fresh.Region(8, base); !slices.Equal(got, want) {
					t.Fatalf("cell %d rank %d (%v) trial %d: %v on the arena, %v fresh", cell, rank, kind, trial, got, want)
				}
			}
		}
	}
}

func TestParseKind(t *testing.T) {
	cases := map[string]Kind{
		"none": None, "single": SingleThread, "single-thread": SingleThread,
		"uniform": Uniform, "gaussian": Gaussian, "normal": Gaussian,
		"GAUSSIAN": Gaussian, "periodic": Periodic, "daemon": Periodic,
	}
	for s, want := range cases {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("pink"); err == nil {
		t.Error("ParseKind accepted unknown model")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", SingleThread: "single", Uniform: "uniform", Gaussian: "gaussian", Periodic: "periodic"} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestMaxExpected(t *testing.T) {
	if got := New(None, 4, 1, nil).maxExpected(base); got != base {
		t.Errorf("none MaxExpected = %v", got)
	}
	if got := New(Uniform, 4, 1, nil).maxExpected(base); got != base+sim.Duration(0.04*float64(base)) {
		t.Errorf("uniform MaxExpected = %v", got)
	}
	if got := New(Gaussian, 4, 1, nil).maxExpected(base); got != base+sim.Duration(3*0.04*float64(base)) {
		t.Errorf("gaussian MaxExpected = %v", got)
	}
}

func TestNegativePercentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative percent did not panic")
		}
	}()
	New(Uniform, -1, 1, nil)
}

// Property: every sample from every model is at least the floor and the
// region has exactly n entries.
func TestQuickRegionShape(t *testing.T) {
	f := func(kindRaw uint8, pct uint8, n uint8, seed int64) bool {
		kind := Kind(int(kindRaw) % 5)
		threads := int(n%32) + 1
		m := New(kind, float64(pct%50), seed, nil)
		region := m.Region(threads, base)
		if len(region) != threads {
			return false
		}
		for _, d := range region {
			if d <= 0 {
				return false
			}
			if kind != Gaussian && d < base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicStretchesCompute(t *testing.T) {
	// 10% duty cycle: accumulating 10ms of CPU takes about 10/0.9 = 11.1ms
	// of wall time (within one firing of slack).
	m := New(Periodic, 10, 9, nil)
	for trial := 0; trial < 50; trial++ {
		for _, d := range m.Region(4, base) {
			if d < base {
				t.Fatalf("periodic compute %v below base %v", d, base)
			}
			if d > m.maxExpected(base) {
				t.Fatalf("periodic compute %v above MaxExpected %v", d, m.maxExpected(base))
			}
		}
	}
}

func TestPeriodicPhaseVariesAcrossThreads(t *testing.T) {
	m := New(Periodic, 10, 11, nil)
	region := m.Region(16, base)
	distinct := map[sim.Duration]bool{}
	for _, d := range region {
		distinct[d] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("periodic noise produced identical stretches: %v", region)
	}
}

func TestPeriodicZeroDutyIsExact(t *testing.T) {
	m := New(Periodic, 0, 1, nil)
	for _, d := range m.Region(4, base) {
		if d != base {
			t.Fatalf("0%% duty compute = %v, want %v", d, base)
		}
	}
}

func TestPeriodicShortComputeMayMissDaemon(t *testing.T) {
	// A compute much shorter than the period sometimes fits entirely
	// before the first firing.
	m := New(Periodic, 10, 3, nil)
	m.period = 10 * sim.Millisecond
	short := 100 * sim.Microsecond
	exact := 0
	for trial := 0; trial < 200; trial++ {
		for _, d := range m.Region(1, short) {
			if d == short {
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatal("short compute never escaped the daemon; phase sampling broken")
	}
}

func TestNewPeriodicValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"full duty": func() { New(Periodic, 100, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegionZeroThreadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-thread region did not panic")
		}
	}()
	New(None, 0, 1, nil).Region(0, base)
}

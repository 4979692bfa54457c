// Package noise implements the system-noise models of the paper (§3.3) used
// to skew per-thread compute times: a single-thread delay (mimicking a
// context switch on one core, the Finepoints methodology), uniform noise, and
// Gaussian noise (after Mondragon et al.).
//
// All models are deterministic given a seed, so simulated experiments are
// exactly reproducible.
package noise

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"partmb/internal/sim"
)

// Kind identifies a noise model.
type Kind int

const (
	// None applies no noise: every thread computes exactly the base amount.
	None Kind = iota
	// SingleThread delays exactly one thread (thread 0) by the full noise
	// amount; all others compute the base amount. Mimics a context switch on
	// one CPU core.
	SingleThread
	// Uniform samples each thread's compute from U[base, base*(1+p)].
	Uniform
	// Gaussian samples each thread's compute from N(base, (base*p)^2),
	// truncated at zero.
	Gaussian
	// Periodic models an OS noise daemon (after Ferreira et al.'s
	// kernel-level noise injection): every core loses the CPU for a fixed
	// slice once per period, with a random phase per thread and region.
	// The noise percentage is the daemon's duty cycle.
	Periodic
)

// String returns the canonical lower-case name of the noise kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case SingleThread:
		return "single"
	case Uniform:
		return "uniform"
	case Gaussian:
		return "gaussian"
	case Periodic:
		return "periodic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a noise-kind name as accepted by the CLI tools.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "none", "0":
		return None, nil
	case "single", "single-thread", "singlethread":
		return SingleThread, nil
	case "uniform":
		return Uniform, nil
	case "gaussian", "normal", "gauss":
		return Gaussian, nil
	case "periodic", "daemon":
		return Periodic, nil
	}
	return None, fmt.Errorf("noise: unknown model %q (want none|single|uniform|gaussian|periodic)", s)
}

// MarshalText renders the canonical kind name (used by JSON platform specs).
func (k Kind) MarshalText() ([]byte, error) {
	if k < None || k > Periodic {
		return nil, fmt.Errorf("noise: cannot marshal %v", k)
	}
	return []byte(k.String()), nil
}

// UnmarshalText parses the forms accepted by ParseKind.
func (k *Kind) UnmarshalText(b []byte) error {
	v, err := ParseKind(string(b))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Model generates per-thread compute durations for one parallel region.
//
// The generator is taken on the first draw, from the arena New was given
// (sim.Arena.Rand), seeded with the seed New was given, so it yields the
// stream rand.NewSource(seed) would have; a model that never draws (kind
// None, or 0 %) never takes one. A nil arena builds a fresh 4.9 KB source;
// an arena reuses one a previous cell drew from, so a model built for an
// arena must not draw after its cell returns — after the arena's next New
// or Close the generator may be another model's.
//
// Concurrency: the generator, and building it, are guarded by a mutex, so a
// Model may be shared across engine worker goroutines without data races.
// Determinism still requires the *call order* to be deterministic —
// concurrent callers interleave draws nondeterministically — so the
// harnesses keep one model per cell (seed derived per cell/rank, see
// stats.DeriveSeed) and the lock is the backstop that turns an accidental
// share into a correctness issue only, never a race. Audit note: core and
// consume build one model per run and patterns one per rank, each after the
// run's scheduler; halo2d, halo3d and sweep3d draw every Region before their
// simulation starts, core, consume and incast inside it, so no model draws
// after its cell returns. Each model is drawn from by one goroutine, and no
// engine sweep shares a model across workers.
type Model struct {
	kind    Kind
	percent float64 // noise amount as a fraction, e.g. 0.04 for 4%
	period  sim.Duration
	seed    int64
	arena   *sim.Arena

	mu  sync.Mutex // guards rng
	rng *rand.Rand // nil until the first draw
}

// DefaultPeriod is the daemon firing period of the Periodic model when
// created through New (Ferreira et al. inject at millisecond scale).
const DefaultPeriod = sim.Millisecond

// New returns a noise model of the given kind with the noise amount expressed
// as a percentage (the paper's "4% noise" is percent=4), drawing from a
// generator of arena a (nil: a fresh one). The model is deterministic for a
// given seed, whatever the arena.
func New(kind Kind, percent float64, seed int64, a *sim.Arena) *Model {
	if percent < 0 {
		panic("noise: negative noise percentage")
	}
	if kind == Periodic && percent >= 100 {
		panic("noise: periodic duty cycle must be below 100%")
	}
	return &Model{
		kind:    kind,
		percent: percent / 100,
		period:  DefaultPeriod,
		seed:    seed,
		arena:   a,
	}
}

// Region returns the per-thread compute durations for one parallel region of
// n threads with the given base compute amount. Thread i computes for
// result[i].
func (m *Model) Region(n int, base sim.Duration) []sim.Duration {
	out := make([]sim.Duration, n)
	m.Draw(out, base)
	return out
}

// Draw is Region into a slice the caller owns: it overwrites out with the
// durations of one region of len(out) threads, drawing exactly what Region
// would.
func (m *Model) Draw(out []sim.Duration, base sim.Duration) {
	n := len(out)
	if n <= 0 {
		panic("noise: region needs at least one thread")
	}
	for i := range out {
		out[i] = base
	}
	if m.percent == 0 || m.kind == None {
		return
	}
	amount := float64(base) * m.percent
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rng == nil {
		m.rng = m.arena.Rand(m.seed)
	}
	switch m.kind {
	case SingleThread:
		// Delay one thread by the full noise amount. The delayed thread is
		// chosen at random so averages do not privilege a particular core,
		// matching the effect of an OS-scheduled context switch.
		victim := m.rng.Intn(n)
		out[victim] = base + sim.Duration(amount)
	case Uniform:
		for i := range out {
			out[i] = base + sim.Duration(m.rng.Float64()*amount)
		}
	case Gaussian:
		// Mean = base, stddev = noise amount. The paper ignores tail
		// samples; we truncate below at a small positive floor, and the
		// benchmark layer additionally prunes extreme samples (§4.1).
		for i := range out {
			v := float64(base) + m.rng.NormFloat64()*amount
			if v < float64(base)/100 {
				v = float64(base) / 100
			}
			out[i] = sim.Duration(v)
		}
	case Periodic:
		for i := range out {
			phase := sim.Duration(m.rng.Int63n(int64(m.period)))
			out[i] = m.stretchPeriodic(base, phase)
		}
	}
}

// stretchPeriodic returns the wall time needed to accumulate base CPU time
// when a daemon steals the core for period*duty once every period, first
// firing at the given phase.
func (m *Model) stretchPeriodic(base sim.Duration, phase sim.Duration) sim.Duration {
	steal := sim.Duration(float64(m.period) * m.percent)
	if steal <= 0 {
		return base
	}
	var t sim.Duration
	remaining := base
	nextFire := phase
	for remaining > 0 {
		if t+remaining <= nextFire {
			t += remaining
			break
		}
		remaining -= nextFire - t
		t = nextFire + steal
		nextFire += m.period
	}
	return t
}

// maxExpected returns an upper bound on the compute duration the model will
// commonly produce, the bound the tests hold draws to: base*(1+p) for
// single/uniform, base*(1+3p) for Gaussian (3 sigma).
func (m *Model) maxExpected(base sim.Duration) sim.Duration {
	switch m.kind {
	case None:
		return base
	case Gaussian:
		return base + sim.Duration(3*float64(base)*m.percent)
	case Periodic:
		// Duty-cycle stretch plus at most one extra firing.
		stretched := float64(base)/(1-m.percent) + float64(m.period)*m.percent
		return sim.Duration(stretched)
	default:
		return base + sim.Duration(float64(base)*m.percent)
	}
}

package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, spec string) RunConfig {
	t.Helper()
	rc, err := ParseRunConfig(spec)
	if err != nil {
		t.Fatalf("ParseRunConfig(%q): %v", spec, err)
	}
	return rc
}

func TestParseRunConfig(t *testing.T) {
	rc := mustParse(t, "min=3,max=50,ci=0.02,conf=0.99,budget=2s")
	want := RunConfig{MinSamples: 3, MaxSamples: 50, Confidence: 0.99, TargetRelCI: 0.02, Budget: 2 * time.Second}
	if rc != want {
		t.Fatalf("parsed %+v, want %+v", rc, want)
	}
	if def := mustParse(t, ""); def != defaultRunConfig() {
		t.Fatalf("empty spec = %+v, want defaults", def)
	}
	// Spaces and partial overrides ride over the defaults.
	rc = mustParse(t, " max=8 , ci=0.1 ")
	if rc.MaxSamples != 8 || rc.TargetRelCI != 0.1 || rc.MinSamples != 2 {
		t.Fatalf("partial spec = %+v", rc)
	}
	// Canonical String round-trips.
	if rt := mustParse(t, rc.String()); rt != rc {
		t.Fatalf("round trip %+v != %+v", rt, rc)
	}
}

func TestParseRunConfigRejects(t *testing.T) {
	for _, spec := range []string{
		"min=1",           // below variance floor
		"min=9,max=3",     // max < min
		"conf=1.5",        // confidence outside (0,1)
		"conf=0",          // boundary
		"ci=0",            // target must be positive
		"ci=-0.1",         // negative target
		"ci=nan",          // NaN target
		"budget=-1s",      // negative budget
		"min",             // no '='
		"wibble=3",        // unknown key
		"min=abc",         // unparsable int
		"budget=fortnite", // unparsable duration
	} {
		if _, err := ParseRunConfig(spec); err == nil {
			t.Errorf("ParseRunConfig(%q) accepted, want error", spec)
		}
	}
}

func TestSamplerConvergesEarlyOnTightData(t *testing.T) {
	// Low-variance stream: converges right at MinSamples, far before max.
	rc := mustParse(t, "min=3,max=100,ci=0.05")
	s := NewSampler(rc)
	rng := rand.New(rand.NewSource(7))
	n := 0
	for !s.Done() {
		s.Add(100 + rng.Float64()) // 1% spread around 100
		n++
		if n > 100 {
			t.Fatal("sampler never finished")
		}
	}
	e := s.Estimate()
	if !e.Converged || e.Reason != ReasonConverged {
		t.Fatalf("tight stream did not converge: %+v", e)
	}
	if e.N >= 20 {
		t.Fatalf("tight stream took %d samples, want early stop", e.N)
	}
	if e.RelHalfWidth > rc.TargetRelCI {
		t.Fatalf("reported rel half-width %v exceeds target %v", e.RelHalfWidth, rc.TargetRelCI)
	}
	if e.Lo > e.Mean || e.Hi < e.Mean {
		t.Fatalf("interval [%v,%v] excludes mean %v", e.Lo, e.Hi, e.Mean)
	}
}

func TestSamplerRunsToMaxOnNoisyData(t *testing.T) {
	// Huge variance: an unreachable 0.1% target rides to MaxSamples and the
	// exhaustion is reported explicitly.
	rc := mustParse(t, "min=3,max=12,ci=0.001")
	s := NewSampler(rc)
	rng := rand.New(rand.NewSource(11))
	for !s.Done() {
		s.Add(rng.Float64() * 1000)
	}
	e := s.Estimate()
	if e.N != rc.MaxSamples {
		t.Fatalf("noisy stream stopped at %d samples, want max %d", e.N, rc.MaxSamples)
	}
	if e.Converged || e.Reason != ReasonMaxSamples {
		t.Fatalf("noisy stream must report max-samples exhaustion: %+v", e)
	}
}

func TestSamplerZeroVarianceConverges(t *testing.T) {
	s := NewSampler(mustParse(t, "min=2,max=50,ci=0.05"))
	s.Add(42)
	s.Add(42)
	if !s.Done() {
		t.Fatal("deterministic stream must converge at MinSamples")
	}
	e := s.Estimate()
	if !e.Converged || e.N != 2 || e.Lo != 42 || e.Hi != 42 {
		t.Fatalf("zero-variance estimate = %+v", e)
	}
}

func TestSamplerBudgetStopsWithFakeClock(t *testing.T) {
	rc := mustParse(t, "min=2,max=1000,ci=0.0001,budget=10s")
	s := NewSampler(rc)
	now := time.Unix(0, 0)
	s.now = func() time.Time { return now }
	rng := rand.New(rand.NewSource(3))
	s.Add(rng.Float64() * 1000) // starts the budget clock
	s.Add(rng.Float64() * 1000)
	if s.Done() {
		t.Fatal("budget not yet exhausted")
	}
	now = now.Add(11 * time.Second)
	if !s.Done() {
		t.Fatal("exhausted budget must stop sampling")
	}
	if e := s.Estimate(); e.Reason != ReasonBudget || e.Converged {
		t.Fatalf("budget stop must be reported: %+v", e)
	}
}

func TestSamplerBudgetRespectsMinSamples(t *testing.T) {
	// Even with the budget pre-exhausted, MinSamples must be reached first.
	rc := mustParse(t, "min=3,max=10,ci=0.0001,budget=1ns")
	s := NewSampler(rc)
	now := time.Unix(0, 0)
	s.now = func() time.Time { return now }
	s.Add(1)
	now = now.Add(time.Hour)
	if s.Done() {
		t.Fatal("must not stop below MinSamples")
	}
	s.Add(999)
	s.Add(1)
	if !s.Done() {
		t.Fatal("over budget at MinSamples must stop")
	}
}

// Property: for random streams, the sampler always terminates within
// MaxSamples, and whenever it reports convergence the interval actually
// meets the target.
func TestSamplerPropertyTerminationAndTightness(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spread := math.Pow(10, rng.Float64()*4-2) // noise scale 0.01..100
		rc := RunConfig{MinSamples: 2, MaxSamples: 30, Confidence: 0.95, TargetRelCI: 0.05}
		s := NewSampler(rc)
		for !s.Done() {
			s.Add(100 + rng.NormFloat64()*spread)
			if len(s.xs) > rc.MaxSamples {
				t.Fatalf("seed %d: sampler overshot MaxSamples", seed)
			}
		}
		e := s.Estimate()
		if e.Converged && e.RelHalfWidth > rc.TargetRelCI+1e-12 {
			t.Fatalf("seed %d: converged with rel half-width %v > target", seed, e.RelHalfWidth)
		}
		if !e.Converged && e.Reason != ReasonMaxSamples {
			t.Fatalf("seed %d: unconverged stop reason %q", seed, e.Reason)
		}
	}
}

func TestGroup(t *testing.T) {
	rc := mustParse(t, "min=2,max=10,ci=0.05")
	g := NewGroup(rc, "overhead", "bandwidth")
	g.Add("overhead", 5)
	g.Add("overhead", 5)
	if g.Done() {
		t.Fatal("group done while bandwidth has no samples")
	}
	rng := rand.New(rand.NewSource(1))
	for !g.Done() {
		g.Add("bandwidth", rng.Float64()*1000)
	}
	est := g.Estimates()
	if est["overhead"].Reason != ReasonConverged {
		t.Fatalf("overhead estimate %+v", est["overhead"])
	}
	if est["bandwidth"].Reason != ReasonMaxSamples {
		t.Fatalf("bandwidth estimate %+v", est["bandwidth"])
	}
	if g.WorstReason() != ReasonMaxSamples {
		t.Fatalf("WorstReason = %q", g.WorstReason())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown metric must panic")
		}
	}()
	g.Add("nope", 1)
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for d := 0; d < 64; d++ {
		s := DeriveSeed(42, d)
		if seen[s] {
			t.Fatalf("duplicate derived seed at draw %d", d)
		}
		seen[s] = true
		// Derived streams must clear the per-rank offsets (base + rank).
		if d > 0 && s-42 < 1024 && s-42 >= 0 {
			t.Fatalf("draw %d seed %d collides with per-rank offset space", d, s)
		}
	}
}

func FuzzParseRunConfig(f *testing.F) {
	f.Add("")
	f.Add("min=3,max=50,ci=0.02,conf=0.99,budget=2s")
	f.Add("min=2,max=2")
	f.Add("budget=1h30m")
	f.Add("ci=1e-3")
	f.Add("min=,max=")
	f.Add("min=-1")
	f.Add("conf=0.5,conf=0.9")
	f.Add(strings.Repeat("min=2,", 100))
	f.Fuzz(func(t *testing.T, spec string) {
		rc, err := ParseRunConfig(spec) // must never panic
		if err != nil {
			return
		}
		// Accepted configs are valid and round-trip through String.
		if verr := rc.Validate(); verr != nil {
			t.Fatalf("accepted invalid config %+v: %v", rc, verr)
		}
		rt, err := ParseRunConfig(rc.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", rc.String(), err)
		}
		if rt != rc {
			t.Fatalf("round trip %+v != %+v via %q", rt, rc, rc.String())
		}
	})
}

// Package service turns the batch sweep engine into a long-lived HTTP
// daemon (`partmb serve`): it accepts sweep specs as JSON, validates them at
// the door, answers from the engine's content-addressed disk cache,
// schedules misses through the engine (single-flight across clients,
// largest cells first), streams per-cell progress over SSE, and
// enforces admission control with explicit backpressure. Results served
// over HTTP are byte-identical to the same spec run through the batch
// CLIs: both sides resolve the spec to the same core.Config and render
// through the same table builder, and the simulator underneath is
// deterministic — the journal-determinism property extends across the
// wire.
package service

import (
	"fmt"
	"strings"

	"partmb/internal/cliutil"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/report"
	"partmb/internal/stats"
)

// Spec is the over-the-wire sweep request and the flag surface of
// `partmb run`: a JSON spec and a flag vector describe the same experiment
// and resolve through the same defaults (Defaults). Every field is
// validated before any simulation is scheduled; unknown fields are
// rejected at decode time.
//
// Over the wire, Platform accepts preset names only — never file paths —
// so a remote client cannot make the daemon read local files.
type Spec struct {
	// Sweep selects a message-size sweep [Min, Max] (power-of-two steps);
	// false runs the single point Size.
	Sweep bool `json:"sweep,omitempty"`
	// Size is the single-point message size.
	Size string `json:"size,omitempty"`
	// Min / Max bound the sweep.
	Min string `json:"min,omitempty"`
	Max string `json:"max,omitempty"`
	// Parts is the partition / thread count.
	Parts int `json:"parts,omitempty"`
	// Compute is the per-thread compute amount.
	Compute string `json:"compute,omitempty"`
	// Noise / NoisePct configure the noise model.
	Noise    string   `json:"noise,omitempty"`
	NoisePct *float64 `json:"noise_pct,omitempty"`
	// Cache is the CPU cache mode, "hot" or "cold".
	Cache string `json:"cache,omitempty"`
	// Impl is the partitioned implementation, "mpipcl" or "native".
	Impl string `json:"impl,omitempty"`
	// Iters / Warmup are the measured and discarded iteration counts.
	Iters  int  `json:"iters,omitempty"`
	Warmup *int `json:"warmup,omitempty"`
	// Seed seeds the noise RNG.
	Seed int64 `json:"seed,omitempty"`
	// Platform names a platform preset.
	Platform string `json:"platform,omitempty"`
	// Samples, when non-empty, switches cells to adaptive
	// confidence-targeted sampling (stats.ParseRunConfig syntax, or "on"
	// for defaults). Over the wire, wall-clock budgets are rejected: budget
	// stops depend on host speed, which would break the service's
	// determinism contract.
	Samples string `json:"samples,omitempty"`
}

// Defaults returns what every field a spec leaves empty resolves to: the
// paper's §3.1 point (1MiB in 16 partitions after 10ms of compute, 10
// measured iterations after 2 warmups) on its Niagara+EDR platform, and
// the 1KiB–64MiB sweep.
func Defaults() Spec {
	noisePct, warmup := 4.0, 2
	return Spec{
		Size:     "1MiB",
		Min:      "1KiB",
		Max:      "64MiB",
		Parts:    16,
		Compute:  "10ms",
		Noise:    "none",
		NoisePct: &noisePct,
		Cache:    "hot",
		Impl:     "mpipcl",
		Iters:    10,
		Warmup:   &warmup,
		Seed:     platform.DefaultSeed,
		Platform: "niagara-edr",
	}
}

// withDefaults fills every field s leaves empty from Defaults and trims
// the strings.
func (s Spec) withDefaults() Spec {
	d := Defaults()
	for _, f := range []struct {
		v   *string
		def string
	}{
		{&s.Size, d.Size}, {&s.Min, d.Min}, {&s.Max, d.Max}, {&s.Compute, d.Compute},
		{&s.Noise, d.Noise}, {&s.Cache, d.Cache}, {&s.Impl, d.Impl}, {&s.Platform, d.Platform},
	} {
		if *f.v = strings.TrimSpace(*f.v); *f.v == "" {
			*f.v = f.def
		}
	}
	if s.Parts == 0 {
		s.Parts = d.Parts
	}
	if s.Iters == 0 {
		s.Iters = d.Iters
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.NoisePct == nil {
		s.NoisePct = d.NoisePct
	}
	if s.Warmup == nil {
		s.Warmup = d.Warmup
	}
	return s
}

// Request is a resolved, validated Spec: the base cell configuration plus
// the message sizes to run (one cell per size).
type Request struct {
	// Base is the fully-resolved cell configuration; Base.MessageBytes is
	// overwritten per size.
	Base core.Config
	// Sizes are the eligible message sizes, ascending (sizes the partition
	// count cannot divide evenly are excluded, the MPIPCL restriction).
	Sizes []int64
	// Sweep records whether the spec was a sweep (affects nothing but
	// reporting; a single point is a one-size sweep).
	Sweep bool
}

// Resolve validates a spec that came over the wire and resolves it
// against Defaults. Platform must name a preset and Samples may not carry
// a wall-clock budget. All failures are client errors (bad spec), never
// server state.
func (s Spec) Resolve() (Request, error) { return s.resolve(false) }

// ResolveLocal is Resolve for a spec typed on the local command line,
// which may do what the wire forbids: Platform may be a spec JSON path,
// and Samples may carry a wall-clock budget.
func (s Spec) ResolveLocal() (Request, error) { return s.resolve(true) }

func (s Spec) resolve(local bool) (Request, error) {
	var rq Request
	s = s.withDefaults()
	platformOf := platform.Preset
	if local {
		platformOf = platform.Resolve
	}
	pf, err := platformOf(s.Platform)
	if err != nil {
		return rq, err
	}
	nk, err := noise.ParseKind(s.Noise)
	if err != nil {
		return rq, err
	}
	cm, err := memsim.ParseCacheMode(s.Cache)
	if err != nil {
		return rq, err
	}
	impl, err := mpi.ParsePartImpl(s.Impl)
	if err != nil {
		return rq, err
	}
	pf = pf.WithNoise(nk, *s.NoisePct).WithCache(cm).WithImpl(impl).
		WithSeed(s.Seed).WithThreadMode(mpi.Multiple)

	rq.Base = core.Config{
		Partitions: s.Parts,
		Iterations: s.Iters,
		Warmup:     *s.Warmup,
		Platform:   pf,
	}
	if rq.Base.Compute, err = cliutil.ParseDuration(s.Compute); err != nil {
		return rq, fmt.Errorf("compute: %w", err)
	}

	if s.Samples != "" {
		spec := s.Samples
		if spec == "on" {
			spec = ""
		}
		rc, err := stats.ParseRunConfig(spec)
		if err != nil {
			return rq, fmt.Errorf("samples: %w", err)
		}
		if rc.Budget > 0 && !local {
			return rq, fmt.Errorf("samples: wall-clock budgets are host-speed dependent and not allowed over the wire")
		}
		if err := rc.Validate(); err != nil {
			return rq, fmt.Errorf("samples: %w", err)
		}
		rq.Base.Adaptive = &rc
	}

	rq.Sweep = s.Sweep
	var sizes []int64
	if s.Sweep {
		min, err := cliutil.ParseSize(s.Min)
		if err != nil {
			return rq, fmt.Errorf("min: %w", err)
		}
		max, err := cliutil.ParseSize(s.Max)
		if err != nil {
			return rq, fmt.Errorf("max: %w", err)
		}
		if sizes, err = core.SizeRange(min, max); err != nil {
			return rq, err
		}
	} else {
		size, err := cliutil.ParseSize(s.Size)
		if err != nil {
			return rq, fmt.Errorf("size: %w", err)
		}
		sizes = []int64{size}
	}
	for _, size := range sizes {
		if size%int64(s.Parts) == 0 {
			rq.Sizes = append(rq.Sizes, size)
		}
	}
	if len(rq.Sizes) == 0 {
		return rq, fmt.Errorf("no message size in the spec is divisible by parts=%d", s.Parts)
	}
	// Validate one representative cell now, at the door: a spec that can
	// only fail inside the sweep would otherwise waste a queue slot.
	probe := rq.Base
	probe.MessageBytes = rq.Sizes[0]
	if err := probe.Validate(); err != nil {
		return rq, err
	}
	return rq, nil
}

// CellKeys returns the content-addressed engine key of every cell the
// request schedules, in size order. Subscribers on the engine's observer
// stream use them to recognize this request's cells.
func (rq Request) CellKeys() []string {
	keys := make([]string, len(rq.Sizes))
	for i, size := range rq.Sizes {
		cfg := rq.Base
		cfg.MessageBytes = size
		keys[i] = cfg.CacheKey()
	}
	return keys
}

// Run executes the request's cells through the runner — the exact code
// path `partmb run` sweeps through, so results (and therefore tables)
// are byte-identical across the wire.
func (rq Request) Run(rn *engine.Runner) ([]*core.Result, error) {
	return core.SweepMessageSizes(rn, rq.Base, rq.Sizes)
}

// ResultTable renders the §3.1 result table for cfg: the shared table
// builder both `partmb run` and the HTTP service use, which is what makes
// HTTP-served tables byte-identical to batch output for the same spec.
func ResultTable(cfg core.Config, results []*core.Result) *report.Table {
	pf := cfg.Platform.Resolved()
	title := fmt.Sprintf("partbench: parts=%d compute=%v noise=%s/%.0f%% cache=%s impl=%s",
		cfg.Partitions, cfg.Compute, pf.NoiseKind, pf.NoisePercent, pf.Cache, pf.Impl)
	var t *report.Table
	if cfg.Adaptive != nil {
		// Adaptive runs carry uncertainty: append the sample count, the
		// loosest relative 95% CI half-width across the metrics, and the
		// sampler's stop reason (budget exhaustion is reported, not hidden).
		t = report.New(title, "size", "overhead", "perceived GB/s", "availability", "early-bird %", "n", "ci ±%", "stop")
		for _, r := range results {
			n, rel, reason := r.SampleStats()
			t.AddF(core.FormatBytes(r.Config.MessageBytes), r.Overhead, r.PerceivedBW/1e9, r.Availability, r.EarlyBird,
				n, 100*rel, reason)
		}
	} else {
		t = report.New(title, "size", "overhead", "perceived GB/s", "availability", "early-bird %")
		for _, r := range results {
			t.AddF(core.FormatBytes(r.Config.MessageBytes), r.Overhead, r.PerceivedBW/1e9, r.Availability, r.EarlyBird)
		}
	}
	return t
}

// Table renders the request's results through the shared builder.
func (rq Request) Table(results []*core.Result) *report.Table {
	return ResultTable(rq.Base, results)
}

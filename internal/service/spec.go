// Package service turns the batch sweep engine into a long-lived HTTP
// daemon (cmd/sweepd): it accepts sweep specs as JSON, validates them at
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
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Spec is the over-the-wire sweep request: the same parameter surface as
// the partbench CLI flags, with the same defaults, so a JSON spec and a
// flag vector describe the same experiment. Every field is validated
// before any simulation is scheduled; unknown fields are rejected at
// decode time.
//
// Unlike the CLI, Platform accepts preset names only — never file paths —
// so a remote client cannot make the daemon read local files.
type Spec struct {
	// Sweep selects a message-size sweep [Min, Max] (power-of-two steps);
	// false runs the single point Size.
	Sweep bool `json:"sweep,omitempty"`
	// Size is the single-point message size (default "1MiB").
	Size string `json:"size,omitempty"`
	// Min / Max bound the sweep (defaults "1KiB" / "64MiB").
	Min string `json:"min,omitempty"`
	Max string `json:"max,omitempty"`
	// Parts is the partition / thread count (default 16).
	Parts int `json:"parts,omitempty"`
	// Compute is the per-thread compute amount (default "10ms").
	Compute string `json:"compute,omitempty"`
	// Noise / NoisePct configure the noise model (defaults "none" / 4).
	Noise    string   `json:"noise,omitempty"`
	NoisePct *float64 `json:"noise_pct,omitempty"`
	// Cache is the CPU cache mode, "hot" or "cold" (default "hot").
	Cache string `json:"cache,omitempty"`
	// Impl is the partitioned implementation, "mpipcl" or "native"
	// (default "mpipcl").
	Impl string `json:"impl,omitempty"`
	// Iters / Warmup are the measured and discarded iteration counts
	// (defaults 10 / 2).
	Iters  int  `json:"iters,omitempty"`
	Warmup *int `json:"warmup,omitempty"`
	// Seed seeds the noise RNG (default 42).
	Seed int64 `json:"seed,omitempty"`
	// Platform names a platform preset (default "niagara-edr").
	Platform string `json:"platform,omitempty"`
	// Samples, when non-empty, switches cells to adaptive
	// confidence-targeted sampling (stats.ParseRunConfig syntax, or "on"
	// for defaults). Wall-clock budgets are rejected: budget stops depend
	// on host speed, which would break the service's determinism contract.
	Samples string `json:"samples,omitempty"`
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

// Resolve validates the spec and resolves it against the partbench
// defaults. All failures are client errors (bad spec), never server
// state.
func (s Spec) Resolve() (Request, error) {
	var rq Request
	str := func(v, def string) string {
		if strings.TrimSpace(v) == "" {
			return def
		}
		return strings.TrimSpace(v)
	}

	pf, err := platform.Preset(str(s.Platform, "niagara-edr"))
	if err != nil {
		return rq, err
	}
	nk, err := noise.ParseKind(str(s.Noise, "none"))
	if err != nil {
		return rq, err
	}
	noisePct := 4.0
	if s.NoisePct != nil {
		noisePct = *s.NoisePct
	}
	cm, err := memsim.ParseCacheMode(str(s.Cache, "hot"))
	if err != nil {
		return rq, err
	}
	impl, err := mpi.ParsePartImpl(str(s.Impl, "mpipcl"))
	if err != nil {
		return rq, err
	}
	seed := s.Seed
	if seed == 0 {
		seed = platform.DefaultSeed
	}
	pf = pf.WithNoise(nk, noisePct).WithCache(cm).WithImpl(impl).
		WithSeed(seed).WithThreadMode(mpi.Multiple)

	parts := s.Parts
	if parts == 0 {
		parts = 16
	}
	iters := s.Iters
	if iters == 0 {
		iters = 10
	}
	warmup := 2
	if s.Warmup != nil {
		warmup = *s.Warmup
	}
	rq.Base = core.Config{
		Partitions: parts,
		Iterations: iters,
		Warmup:     warmup,
		Platform:   pf,
	}
	var compute sim.Duration
	if compute, err = cliutil.ParseDuration(str(s.Compute, "10ms")); err != nil {
		return rq, fmt.Errorf("compute: %w", err)
	}
	rq.Base.Compute = compute

	if s.Samples != "" {
		spec := s.Samples
		if spec == "on" {
			spec = ""
		}
		rc, err := stats.ParseRunConfig(spec)
		if err != nil {
			return rq, fmt.Errorf("samples: %w", err)
		}
		if rc.Budget > 0 {
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
		min, err := cliutil.ParseSize(str(s.Min, "1KiB"))
		if err != nil {
			return rq, fmt.Errorf("min: %w", err)
		}
		max, err := cliutil.ParseSize(str(s.Max, "64MiB"))
		if err != nil {
			return rq, fmt.Errorf("max: %w", err)
		}
		if min <= 0 || max < min {
			return rq, fmt.Errorf("bad size range [%d, %d]", min, max)
		}
		sizes = core.MessageSizes(min, max)
	} else {
		size, err := cliutil.ParseSize(str(s.Size, "1MiB"))
		if err != nil {
			return rq, fmt.Errorf("size: %w", err)
		}
		sizes = []int64{size}
	}
	for _, size := range sizes {
		if size%int64(parts) == 0 {
			rq.Sizes = append(rq.Sizes, size)
		}
	}
	if len(rq.Sizes) == 0 {
		return rq, fmt.Errorf("no message size in the spec is divisible by parts=%d", parts)
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
// path the partbench CLI sweeps through, so results (and therefore tables)
// are byte-identical across the wire.
func (rq Request) Run(rn *engine.Runner) ([]*core.Result, error) {
	return core.SweepMessageSizes(rn, rq.Base, rq.Sizes)
}

// ResultTable renders partbench's result table for cfg: the shared table
// builder both the CLI and the HTTP service use, which is what makes
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

package stats

// This file is the confidence-targeted sampling layer (DESIGN.md §9): a
// RunConfig in the spirit of the TEMPI benchmark harness (min/max samples,
// per-cell wall-clock budget) and a Sampler state machine that consumes a
// deterministic sample stream and decides when the estimate is tight enough
// to stop. The harnesses in internal/core, internal/classic,
// internal/patterns, and internal/snap drive one Sampler per reported
// metric and draw fresh noise seeds until every sampler is done.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// RunConfig bounds one cell's adaptive sampling. The zero value is not
// runnable; start from defaultRunConfig or ParseRunConfig.
type RunConfig struct {
	// MinSamples is the smallest sample count before convergence may be
	// declared (>= 2, so a variance estimate exists).
	MinSamples int `json:"min"`
	// MaxSamples caps the samples drawn for one cell; reaching it stops
	// sampling with Reason "max-samples" (the sample-budget exhaustion the
	// tables report explicitly).
	MaxSamples int `json:"max"`
	// Confidence is the two-sided confidence level of the interval
	// (0 < Confidence < 1, e.g. 0.95).
	Confidence float64 `json:"conf"`
	// TargetRelCI is the convergence target: the CI half-width divided by
	// the absolute point estimate must fall to or below it.
	TargetRelCI float64 `json:"ci"`
	// Budget, when positive, bounds the host wall-clock time a cell may
	// spend sampling; exceeding it stops with Reason "budget". Wall-clock
	// stopping is machine-dependent, so determinism tests keep Budget 0.
	Budget time.Duration `json:"budget,omitempty"`
}

// defaultRunConfig returns the adaptive defaults: at least 2 and at most 32
// samples, 95% confidence, 5% target relative half-width, no wall-clock
// budget.
func defaultRunConfig() RunConfig {
	return RunConfig{MinSamples: 2, MaxSamples: 32, Confidence: 0.95, TargetRelCI: 0.05}
}

// Validate checks the configuration bounds.
func (rc RunConfig) Validate() error {
	if rc.MinSamples < 2 {
		return fmt.Errorf("stats: MinSamples %d, need >= 2 for a variance estimate", rc.MinSamples)
	}
	if rc.MaxSamples < rc.MinSamples {
		return fmt.Errorf("stats: MaxSamples %d below MinSamples %d", rc.MaxSamples, rc.MinSamples)
	}
	if rc.Confidence <= 0 || rc.Confidence >= 1 {
		return fmt.Errorf("stats: Confidence %v outside (0,1)", rc.Confidence)
	}
	if rc.TargetRelCI <= 0 || math.IsNaN(rc.TargetRelCI) || math.IsInf(rc.TargetRelCI, 0) {
		return fmt.Errorf("stats: TargetRelCI %v must be a positive finite fraction", rc.TargetRelCI)
	}
	if rc.Budget < 0 {
		return fmt.Errorf("stats: negative Budget %v", rc.Budget)
	}
	return nil
}

// String renders the canonical spec form accepted by ParseRunConfig.
func (rc RunConfig) String() string {
	s := fmt.Sprintf("min=%d,max=%d,ci=%g,conf=%g", rc.MinSamples, rc.MaxSamples, rc.TargetRelCI, rc.Confidence)
	if rc.Budget > 0 {
		s += fmt.Sprintf(",budget=%s", rc.Budget)
	}
	return s
}

// ParseRunConfig parses an adaptive-sampling spec of comma-separated
// key=value pairs over the defaults, e.g. "min=3,max=50,ci=0.05,conf=0.95,
// budget=2s". Keys: min, max (sample counts), ci (target relative CI
// half-width), conf (confidence level), budget (host wall-clock bound,
// Go duration syntax). An empty spec returns the defaults. The result is
// validated; ParseRunConfig never panics on any input.
func ParseRunConfig(spec string) (RunConfig, error) {
	rc := defaultRunConfig()
	spec = strings.TrimSpace(spec)
	if spec != "" {
		for _, field := range strings.Split(spec, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			key, val, ok := strings.Cut(field, "=")
			if !ok {
				return RunConfig{}, fmt.Errorf("stats: bad sampling field %q (want key=value)", field)
			}
			key, val = strings.TrimSpace(key), strings.TrimSpace(val)
			var err error
			switch key {
			case "min":
				rc.MinSamples, err = strconv.Atoi(val)
			case "max":
				rc.MaxSamples, err = strconv.Atoi(val)
			case "ci":
				rc.TargetRelCI, err = strconv.ParseFloat(val, 64)
			case "conf":
				rc.Confidence, err = strconv.ParseFloat(val, 64)
			case "budget":
				rc.Budget, err = time.ParseDuration(val)
			default:
				return RunConfig{}, fmt.Errorf("stats: unknown sampling key %q (want min|max|ci|conf|budget)", key)
			}
			if err != nil {
				return RunConfig{}, fmt.Errorf("stats: sampling field %q: %v", field, err)
			}
		}
	}
	if err := rc.Validate(); err != nil {
		return RunConfig{}, err
	}
	return rc, nil
}

// Stop reasons reported by Estimate.Reason.
const (
	// ReasonConverged: the CI half-width met the target.
	ReasonConverged = "converged"
	// ReasonMaxSamples: the sample budget ran out before convergence.
	ReasonMaxSamples = "max-samples"
	// ReasonBudget: the wall-clock budget ran out before convergence.
	ReasonBudget = "budget"
	// ReasonSampling: not done yet (never reported by a finished cell).
	ReasonSampling = "sampling"
)

// Estimate is a Sampler's current view of one metric: the point estimates,
// the confidence interval on the mean, and why sampling stopped.
type Estimate struct {
	// N is the number of samples consumed.
	N int `json:"n"`
	// Mean is the sample mean — the point estimate the harness reports, so
	// adaptive-off and adaptive-on cells aggregate the same way.
	Mean float64 `json:"mean"`
	// Trimean is Tukey's trimean, the robust companion estimate.
	Trimean float64 `json:"trimean"`
	// Stddev is the sample standard deviation.
	Stddev float64 `json:"sd"`
	// Lo and Hi bound the Student-t confidence interval on the mean.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// RelHalfWidth is (Hi-Lo)/2 / |Mean| (0 when the mean is 0).
	RelHalfWidth float64 `json:"rel_hw"`
	// Converged reports whether the target was met; Reason says why
	// sampling stopped ("converged", "max-samples", "budget").
	Converged bool   `json:"converged"`
	Reason    string `json:"reason"`
	// IID reports the stationarity diagnostics (lag-1 autocorrelation and
	// runs test) on the sample stream.
	IID bool `json:"iid"`
}

// HalfWidth returns the CI half-width in metric units.
func (e Estimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// Sampler consumes one metric's sample stream and decides when to stop.
// It is a pure state machine over its inputs: given the same sample
// sequence, Done and Estimate answer identically on every host, except for
// the optional wall-clock budget (injected through the clock field so tests
// stay deterministic). Not safe for concurrent use.
type Sampler struct {
	rc    RunConfig
	xs    []float64
	now   func() time.Time // nil = time.Now (tests set a fake clock); read only when Budget > 0
	start time.Time
	began bool
}

// NewSampler returns a sampler for one metric under rc. rc must have been
// validated by the caller (ParseRunConfig or RunConfig.Validate).
func NewSampler(rc RunConfig) *Sampler {
	return &Sampler{rc: rc}
}

// clock returns the effective time source.
func (s *Sampler) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// Add feeds one sample. The first Add starts the wall-clock budget.
func (s *Sampler) Add(x float64) {
	if !s.began {
		s.began = true
		if s.rc.Budget > 0 {
			s.start = s.clock()
		}
	}
	s.xs = append(s.xs, x)
}

// converged reports whether the CI target is met on the current samples.
func (s *Sampler) converged() bool {
	if len(s.xs) < s.rc.MinSamples {
		return false
	}
	if stddev(s.xs) == 0 {
		return true // degenerate stream: the interval has zero width
	}
	lo, hi := meanCI(s.xs, s.rc.Confidence)
	hw := (hi - lo) / 2
	m := math.Abs(Mean(s.xs))
	if m == 0 {
		return false // relative target undefined at a zero mean
	}
	return hw/m <= s.rc.TargetRelCI
}

// overBudget reports whether the wall-clock budget is exhausted.
func (s *Sampler) overBudget() bool {
	return s.rc.Budget > 0 && s.began && s.clock().Sub(s.start) >= s.rc.Budget
}

// Done reports whether sampling should stop: the estimate converged, the
// sample budget ran out, or the wall-clock budget ran out.
func (s *Sampler) Done() bool {
	if len(s.xs) >= s.rc.MaxSamples {
		return true
	}
	if len(s.xs) >= s.rc.MinSamples && s.overBudget() {
		return true
	}
	return s.converged()
}

// Estimate returns the current estimate with its stop classification.
func (s *Sampler) Estimate() Estimate {
	e := Estimate{
		N:       len(s.xs),
		Mean:    Mean(s.xs),
		Trimean: trimean(s.xs),
		Stddev:  stddev(s.xs),
		IID:     isIID(s.xs),
	}
	e.Lo, e.Hi = meanCI(s.xs, s.rc.Confidence)
	if m := math.Abs(e.Mean); m > 0 {
		e.RelHalfWidth = e.HalfWidth() / m
	}
	e.Converged = s.converged()
	switch {
	case e.Converged:
		e.Reason = ReasonConverged
	case len(s.xs) >= s.rc.MaxSamples:
		e.Reason = ReasonMaxSamples
	case len(s.xs) >= s.rc.MinSamples && s.overBudget():
		e.Reason = ReasonBudget
	default:
		e.Reason = ReasonSampling
	}
	return e
}

// Group runs one Sampler per named metric in lockstep — the per-cell shape
// the harnesses use (a cell reports several metrics, and sampling continues
// until every one is done). Metric order is fixed at construction, so
// iteration is deterministic.
type Group struct {
	names    []string
	samplers map[string]*Sampler
}

// NewGroup builds a sampler group over the named metrics.
func NewGroup(rc RunConfig, names ...string) *Group {
	g := &Group{names: append([]string(nil), names...), samplers: map[string]*Sampler{}}
	for _, n := range g.names {
		g.samplers[n] = NewSampler(rc)
	}
	return g
}

// Add feeds one sample to the named metric's sampler. Unknown names panic:
// the metric set is fixed at construction and a typo is a programmer error.
func (g *Group) Add(name string, x float64) {
	s := g.samplers[name]
	if s == nil {
		panic(fmt.Sprintf("stats: unknown sampler metric %q", name))
	}
	s.Add(x)
}

// Done reports whether every metric's sampler is done.
func (g *Group) Done() bool {
	for _, n := range g.names {
		if !g.samplers[n].Done() {
			return false
		}
	}
	return true
}

// Estimates returns the per-metric estimates keyed by name.
func (g *Group) Estimates() map[string]Estimate {
	out := make(map[string]Estimate, len(g.names))
	for _, n := range g.names {
		out[n] = g.samplers[n].Estimate()
	}
	return out
}

// WorstReason returns the least-satisfied stop reason across the group:
// any "budget" beats any "max-samples" beats all-"converged". It is the
// cell-level exhaustion classification the journal records.
func (g *Group) WorstReason() string {
	rank := map[string]int{ReasonConverged: 0, ReasonSampling: 1, ReasonMaxSamples: 2, ReasonBudget: 3}
	worst := ReasonConverged
	for _, n := range g.names {
		r := g.samplers[n].Estimate().Reason
		if rank[r] > rank[worst] {
			worst = r
		}
	}
	return worst
}

// SeedStride separates derived noise-seed streams: draw k of a cell runs at
// seed base + k*SeedStride. A large odd stride keeps per-draw streams from
// overlapping the per-rank seed offsets (base + rank) the motifs use.
const SeedStride = 0x9E3779B1 // 2^32 * golden ratio, odd

// DeriveSeed returns the seed of adaptive draw k over the given base seed.
func DeriveSeed(base int64, draw int) int64 {
	return base + int64(draw)*SeedStride
}

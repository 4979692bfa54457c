// Package platform consolidates the simulated experimental platform into a
// single Spec: machine topology, interconnect parameters, memory/cache mode,
// noise model, RNG seed, MPI threading level, and partitioned implementation.
//
// Before this package existed every layer carried its own subset of these
// knobs (core.Config, patterns.SweepConfig/HaloConfig, classic.Config,
// snap.Config each had Net/Machine/noise/cache fields threaded ad hoc). A
// Spec is the one place platform state lives; benchmark configs embed a
// *Spec and the harnesses read everything hardware- or environment-shaped
// through it.
//
// Specs are named (presets) or loaded from JSON files, so an experiment's
// platform is an explicit, reproducible artifact rather than a pile of CLI
// flags — the experimental-design discipline argued for by "MPI Benchmarking
// Revisited".
package platform

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
)

// Spec describes the full simulated platform an experiment runs on.
//
// The zero value of every field is the paper's default (EDR fabric, Niagara
// node, hot cache, no noise, seed 42, MPI_THREAD_FUNNELED, MPIPCL), applied
// by Resolved; a zero Spec therefore reproduces the paper's testbed.
type Spec struct {
	// Name labels the spec in reports and registries; presets set it, and
	// load fills it from the file name when the JSON omits it.
	Name string `json:"name,omitempty"`
	// Net holds the interconnect parameters (nil = netsim.EDR()).
	Net *netsim.Params `json:"net,omitempty"`
	// Machine is the per-node hardware model (nil = cluster.Niagara()).
	Machine *cluster.Machine `json:"machine,omitempty"`
	// Cache selects hot or cold CPU cache for timed iterations (§3.4).
	Cache memsim.CacheMode `json:"cache"`
	// NoiseKind and NoisePercent configure the system-noise model (§3.3).
	NoiseKind    noise.Kind `json:"noise"`
	NoisePercent float64    `json:"noise_percent"`
	// Seed makes the noise draws reproducible (0 = the default seed 42).
	Seed int64 `json:"seed,omitempty"`
	// ThreadMode is the MPI threading level for the point-to-point harness.
	// Motif and proxy runners derive their threading from their own Mode and
	// ignore this field.
	ThreadMode mpi.ThreadMode `json:"thread_mode"`
	// Impl selects the partitioned implementation under test.
	Impl mpi.PartImpl `json:"impl"`
}

// DefaultSeed is the seed applied when a Spec leaves Seed zero.
const DefaultSeed = 42

// Niagara returns the paper's platform: a Niagara-like node (2x20 Skylake
// cores, NIC on socket 0) on one EDR InfiniBand hop, hot cache, no noise.
func Niagara() *Spec {
	return &Spec{
		Name:    "niagara-edr",
		Net:     netsim.EDR(),
		Machine: cluster.Niagara(),
		Seed:    DefaultSeed,
	}
}

// EpycHDR returns the contrast platform: a wider EPYC-class node on an HDR
// (200 Gb/s generation) hop, for exploring how the paper's crossovers move
// on newer hardware.
func EpycHDR() *Spec {
	return &Spec{
		Name:    "epyc-hdr",
		Net:     netsim.HDR(),
		Machine: cluster.Epyc(),
		Seed:    DefaultSeed,
	}
}

// NiagaraHDR returns the paper's node on the newer HDR fabric (fabric-only
// upgrade study).
func NiagaraHDR() *Spec {
	s := Niagara()
	s.Name = "niagara-hdr"
	s.Net = netsim.HDR()
	return s
}

// EpycEDR returns the wider node on the paper's EDR fabric (node-only
// upgrade study).
func EpycEDR() *Spec {
	s := EpycHDR()
	s.Name = "epyc-edr"
	s.Net = netsim.EDR()
	return s
}

// presets maps preset names (and aliases) to constructors.
var presets = map[string]func() *Spec{
	"niagara-edr": Niagara,
	"niagara":     Niagara,
	"paper":       Niagara,
	"default":     Niagara,
	"epyc-hdr":    EpycHDR,
	"epyc":        EpycHDR,
	"niagara-hdr": NiagaraHDR,
	"epyc-edr":    EpycEDR,
}

// PresetNames returns the canonical preset names, sorted.
func PresetNames() []string {
	seen := map[string]bool{}
	for _, f := range presets {
		seen[f().Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns a fresh copy of the named preset.
func Preset(name string) (*Spec, error) {
	f, ok := presets[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return nil, fmt.Errorf("platform: unknown preset %q (have %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return f(), nil
}

// Resolve turns a CLI argument into a Spec: a preset name, or a path to a
// JSON spec file (anything containing a path separator or ending in .json).
func Resolve(arg string) (*Spec, error) {
	if arg == "" {
		return Niagara(), nil
	}
	if strings.ContainsAny(arg, "/\\") || strings.HasSuffix(arg, ".json") {
		return load(arg)
	}
	return Preset(arg)
}

// load reads a Spec from a JSON file, applies defaults, and validates it.
func load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("platform: parsing %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	r := s.Resolved()
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("platform: %s: %w", path, err)
	}
	return r, nil
}

// Resolved returns a copy with nil/zero fields replaced by the paper's
// defaults. A nil receiver resolves to the Niagara preset. The Net and
// Machine pointers are shared with the receiver and must be treated as
// immutable, which is how every harness uses them.
func (s *Spec) Resolved() *Spec {
	if s == nil {
		return Niagara()
	}
	out := *s
	if out.Net == nil {
		out.Net = netsim.EDR()
	}
	if out.Machine == nil {
		out.Machine = cluster.Niagara()
	}
	if out.Seed == 0 {
		out.Seed = DefaultSeed
	}
	return &out
}

// MPIConfig returns mpi.DefaultConfig(ranks) with the spec's network,
// machine and memory model (from Cache) filled in; threading level,
// partitioned implementation and topology stay the caller's to set. The
// receiver must be resolved.
func (s *Spec) MPIConfig(ranks int) mpi.Config {
	c := mpi.DefaultConfig(ranks)
	c.Net = s.Net
	c.Machine = s.Machine
	c.Mem = memsim.Default(s.Cache)
	return c
}

// Validate checks the spec for consistency. Nil Net/Machine are allowed
// (they mean "paper default").
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Net != nil {
		if err := s.Net.Validate(); err != nil {
			return err
		}
	}
	if s.Machine != nil {
		if err := s.Machine.Validate(); err != nil {
			return err
		}
	}
	if s.NoisePercent < 0 {
		return fmt.Errorf("platform: negative NoisePercent")
	}
	if s.NoiseKind < noise.None || s.NoiseKind > noise.Periodic {
		return fmt.Errorf("platform: unknown noise kind %v", s.NoiseKind)
	}
	return nil
}

// String renders a one-line summary of the resolved platform.
func (s *Spec) String() string {
	r := s.Resolved()
	name := r.Name
	if name == "" {
		name = "custom"
	}
	return fmt.Sprintf("%s: %dx%d cores, %.0fGb/s fabric, %s cache, noise %s/%.0f%%, %s, %s",
		name, r.Machine.Sockets, r.Machine.CoresPerSocket, r.Net.Bandwidth*8/1e9,
		r.Cache, r.NoiseKind, r.NoisePercent, r.ThreadMode, r.Impl)
}

// The With* helpers return a modified copy, leaving the receiver untouched;
// Net and Machine pointers are shared. They exist so call sites can derive
// per-cell specs from a base spec without mutation hazards under the
// engine's parallel workers.

// WithNoise returns a copy with the noise model replaced.
func (s *Spec) WithNoise(kind noise.Kind, percent float64) *Spec {
	out := *s.Resolved()
	out.NoiseKind = kind
	out.NoisePercent = percent
	return &out
}

// WithCache returns a copy with the cache mode replaced.
func (s *Spec) WithCache(mode memsim.CacheMode) *Spec {
	out := *s.Resolved()
	out.Cache = mode
	return &out
}

// WithThreadMode returns a copy with the MPI threading level replaced.
func (s *Spec) WithThreadMode(mode mpi.ThreadMode) *Spec {
	out := *s.Resolved()
	out.ThreadMode = mode
	return &out
}

// WithImpl returns a copy with the partitioned implementation replaced.
func (s *Spec) WithImpl(impl mpi.PartImpl) *Spec {
	out := *s.Resolved()
	out.Impl = impl
	return &out
}

// WithSeed returns a copy with the RNG seed replaced.
func (s *Spec) WithSeed(seed int64) *Spec {
	out := *s.Resolved()
	out.Seed = seed
	return &out
}

// WithNet returns a copy with the interconnect parameters replaced.
func (s *Spec) WithNet(net *netsim.Params) *Spec {
	out := *s.Resolved()
	out.Net = net
	return &out
}

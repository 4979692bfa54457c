package platform

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
)

// save writes s to a JSON file, indented the way spec files are written by
// hand.
func save(t *testing.T, s *Spec, path string) {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPresetRoundTrip saves every preset to JSON, loads it back, and checks
// the reloaded spec is identical — the acceptance criterion for the spec
// file format.
func TestPresetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			orig, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".json")
			save(t, orig, path)
			got, err := load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, orig.Resolved()) {
				t.Fatalf("round trip changed spec:\ngot  %+v\nwant %+v", got, orig)
			}
		})
	}
}

// TestRoundTripNonDefaultFields covers the enum text forms end to end.
func TestRoundTripNonDefaultFields(t *testing.T) {
	orig := Niagara().
		WithNoise(noise.Gaussian, 7.5).
		WithCache(memsim.Cold).
		WithThreadMode(mpi.Multiple).
		WithImpl(mpi.PartNative).
		WithSeed(99)
	orig.Name = "weird"
	path := filepath.Join(t.TempDir(), "weird.json")
	save(t, orig, path)
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Fatalf("round trip changed spec:\ngot  %+v\nwant %+v", got, orig)
	}
}

func TestSpecJSONIsHumanReadable(t *testing.T) {
	data, err := json.Marshal(EpycHDR().WithCache(memsim.Cold).WithNoise(noise.Uniform, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cold"`, `"uniform"`, `"funneled"`, `"mpipcl"`, `"800ns"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshalled spec missing %s: %s", want, data)
		}
	}
}

func TestResolveAndDefaults(t *testing.T) {
	var nilSpec *Spec
	r := nilSpec.Resolved()
	if r.Net == nil || r.Machine == nil || r.Seed != DefaultSeed {
		t.Fatalf("nil spec did not resolve to paper defaults: %+v", r)
	}
	if r.ThreadMode != mpi.Funneled || r.Impl != mpi.PartMPIPCL {
		t.Fatalf("nil spec thread/impl defaults wrong: %+v", r)
	}
	if r.Cache != memsim.Hot || r.NoiseKind != noise.None {
		t.Fatalf("nil spec cache/noise defaults wrong: %+v", r)
	}

	if _, err := Resolve("no-such-preset"); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	if _, err := Resolve("/no/such/file.json"); err == nil {
		t.Fatal("expected error for missing file")
	}
	for _, alias := range []string{"", "niagara", "paper", "default", "NIAGARA-EDR"} {
		s, err := Resolve(alias)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", alias, err)
		}
		if s.Name != "niagara-edr" {
			t.Fatalf("Resolve(%q) = %s, want niagara-edr", alias, s.Name)
		}
	}
}

func TestValidate(t *testing.T) {
	s := Niagara()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.NoisePercent = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative noise percent")
	}
	bad = *s
	bad.Net.Bandwidth = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for invalid net params")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(path, []byte(`{"noise_pct": 4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("expected error for unknown JSON field")
	}
}

// TestWithHelpersDoNotMutate guards the copy semantics the engine's
// parallel workers rely on.
func TestWithHelpersDoNotMutate(t *testing.T) {
	base := Niagara()
	_ = base.WithNoise(noise.Uniform, 4)
	_ = base.WithCache(memsim.Cold)
	_ = base.WithThreadMode(mpi.Multiple)
	if base.NoiseKind != noise.None || base.Cache != memsim.Hot || base.ThreadMode != mpi.Funneled {
		t.Fatalf("With* helpers mutated the base spec: %+v", base)
	}
}

// TestMPIConfig: the spec fills in the network, machine and memory model and
// leaves every other field at mpi.DefaultConfig's value.
func TestMPIConfig(t *testing.T) {
	s := EpycHDR().WithCache(memsim.Cold)
	got := s.MPIConfig(3)
	want := mpi.DefaultConfig(3)
	if got.Net != s.Net || got.Machine != s.Machine {
		t.Errorf("MPIConfig took Net %p, Machine %p; the spec has %p, %p", got.Net, got.Machine, s.Net, s.Machine)
	}
	if !reflect.DeepEqual(got.Mem, memsim.Default(memsim.Cold)) {
		t.Errorf("MPIConfig Mem = %+v, want the cold-cache model", got.Mem)
	}
	got.Net, got.Machine, got.Mem = want.Net, want.Machine, want.Mem
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MPIConfig(3) = %+v, want DefaultConfig(3) apart from Net, Machine and Mem", got)
	}
}

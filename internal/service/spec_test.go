package service

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

// TestSpecDefaultsMirrorPartbench: an empty spec resolves to the paper's
// §3.1 point. `partmb run` registers its flags with Defaults, so HTTP specs
// and its flag vectors are two spellings of the same experiment.
func TestSpecDefaultsMirrorPartbench(t *testing.T) {
	rq, err := Spec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	c := rq.Base
	if c.Partitions != 16 || c.Iterations != 10 || c.Warmup != 2 {
		t.Fatalf("shape = parts %d iters %d warmup %d", c.Partitions, c.Iterations, c.Warmup)
	}
	if c.Compute != 10*sim.Millisecond {
		t.Fatalf("compute = %v, want 10ms", c.Compute)
	}
	if len(rq.Sizes) != 1 || rq.Sizes[0] != 1<<20 {
		t.Fatalf("sizes = %v, want [1MiB]", rq.Sizes)
	}
	pf := c.Platform
	if pf.Name != "niagara-edr" || pf.Seed != 42 || pf.NoiseKind != noise.None ||
		pf.NoisePercent != 4 || pf.Cache != memsim.Hot || pf.Impl != mpi.PartMPIPCL ||
		pf.ThreadMode != mpi.Multiple {
		t.Fatalf("platform = %+v", pf)
	}
	if c.Adaptive != nil {
		t.Fatal("empty spec resolved adaptive")
	}
}

func TestSpecSweepSizes(t *testing.T) {
	rq, err := Spec{Sweep: true, Min: "1KiB", Max: "8KiB", Parts: 4}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1024, 2048, 4096, 8192}
	if len(rq.Sizes) != len(want) {
		t.Fatalf("sizes = %v, want %v", rq.Sizes, want)
	}
	for i, s := range want {
		if rq.Sizes[i] != s {
			t.Fatalf("sizes = %v, want %v", rq.Sizes, want)
		}
	}
	keys := rq.CellKeys()
	seen := map[string]bool{}
	for _, k := range keys {
		if k == "" || seen[k] {
			t.Fatalf("cell keys not unique and non-empty: %v", keys)
		}
		seen[k] = true
	}
}

func TestSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown preset", Spec{Platform: "cray-1"}, "unknown preset"},
		// Paths resolve through Preset only: a remote client must not be
		// able to make the daemon read files.
		{"platform path", Spec{Platform: "specs/foo.json"}, "unknown preset"},
		{"bad noise", Spec{Noise: "cosmic"}, "noise"},
		{"bad cache", Spec{Cache: "lukewarm"}, "cache"},
		{"bad impl", Spec{Impl: "smoke-signals"}, "impl"},
		{"bad size", Spec{Size: "12 parsecs"}, "size"},
		{"bad range", Spec{Sweep: true, Min: "4MiB", Max: "1MiB"}, "bad size range"},
		{"indivisible", Spec{Size: "1000", Parts: 7}, "divisible"},
		{"negative parts", Spec{Parts: -4}, "Partitions"},
		{"budget samples", Spec{Samples: "budget=1s"}, "budget"},
		{"bad samples", Spec{Samples: "min=banana"}, "samples"},
	}
	for _, c := range cases {
		if _, err := c.spec.Resolve(); err == nil {
			t.Errorf("%s: Resolve accepted %+v", c.name, c.spec)
		} else if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSpecResolveLocal: a spec typed on the local command line may name a
// platform JSON file and a wall-clock sampling budget, which Resolve
// refuses over the wire; everything else resolves as it does there.
func TestSpecResolveLocal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hdr.json")
	if err := platform.EpycHDR().Save(path); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Platform: path, Samples: "min=2,max=4,budget=1s"}
	if _, err := spec.Resolve(); err == nil {
		t.Fatal("Resolve accepted a platform path and a budget")
	}
	rq, err := spec.ResolveLocal()
	if err != nil {
		t.Fatal(err)
	}
	if rq.Base.Platform.Name != "epyc-hdr" || rq.Base.Adaptive == nil || rq.Base.Adaptive.Budget == 0 {
		t.Fatalf("resolved platform %q, adaptive %+v", rq.Base.Platform.Name, rq.Base.Adaptive)
	}
	wire, err := Spec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	local, err := Spec{}.ResolveLocal()
	if err != nil {
		t.Fatal(err)
	}
	if wire.CellKeys()[0] != local.CellKeys()[0] {
		t.Fatal("an empty spec keys differently through ResolveLocal")
	}
}

func TestSpecAdaptiveOn(t *testing.T) {
	rq, err := Spec{Samples: "on"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if rq.Base.Adaptive == nil || rq.Base.Adaptive.Budget != 0 {
		t.Fatalf("adaptive = %+v", rq.Base.Adaptive)
	}
	if k := rq.CellKeys()[0]; k == "" {
		t.Fatal("budget-free adaptive cell keyed to \"\" (uncacheable)")
	}
}

// FuzzSpecResolve feeds arbitrary request bodies through the decode and
// resolve steps the sweep handler runs at the door. Neither may panic, and
// a spec Resolve accepts must describe only valid cells: every size it
// schedules passes core.Config.Validate, not just the first one Resolve
// probes.
func FuzzSpecResolve(f *testing.F) {
	f.Add([]byte(`{"sweep":true,"min":"1KiB","max":"1MiB","compute":"1ms"}`))
	f.Add([]byte(`{"size":"64KiB","parts":8,"samples":"min=3,max=6,ci=0.05"}`))
	f.Add([]byte(`{"size":"4KiB","parts":-4}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		rq, err := spec.Resolve()
		if err != nil {
			return
		}
		for _, size := range rq.Sizes {
			cfg := rq.Base
			cfg.MessageBytes = size
			if err := cfg.Validate(); err != nil {
				t.Fatalf("spec %s resolved to an invalid %d-byte cell: %v", body, size, err)
			}
		}
	})
}

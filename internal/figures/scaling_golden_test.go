package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"partmb/internal/sim"
)

// goldenScalingOptions freezes a small scaling sweep for the golden file,
// independent of the CLI defaults so retuning those does not silently
// invalidate the baseline.
func goldenScalingOptions(stencil string, shards int) ScalingOptions {
	return ScalingOptions{
		Stencil:      stencil,
		Ranks:        []int{8, 64},
		Shards:       shards,
		BytesPerRank: 4 << 10,
		Compute:      200 * sim.Microsecond,
		Repeats:      2,
	}
}

func renderScaling(t *testing.T, opt ScalingOptions) []byte {
	t.Helper()
	tables, err := Env{}.ScalingTables(opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tab := range tables {
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestGoldenScaling locks the scaling tables' virtual-time content and pins
// the tentpole property at the figures layer: the rendered bytes must be
// identical at every shard count, because sharding is an execution
// strategy, never a model input.
func TestGoldenScaling(t *testing.T) {
	for _, stencil := range []string{"halo3d", "sweep3d"} {
		stencil := stencil
		t.Run(stencil, func(t *testing.T) {
			got := renderScaling(t, goldenScalingOptions(stencil, 1))
			path := filepath.Join("testdata", "scaling_"+stencil+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("scaling output diverged from golden baseline.\n--- got ---\n%s\n--- want ---\n%s", got, want)
				}
			}
			if sharded := renderScaling(t, goldenScalingOptions(stencil, 4)); !bytes.Equal(got, sharded) {
				t.Fatalf("shards=4 output differs from shards=1.\n--- shards=1 ---\n%s\n--- shards=4 ---\n%s", got, sharded)
			}
		})
	}
}

// TestScalingValidate pins the fail-at-startup contract of the options.
func TestScalingValidate(t *testing.T) {
	good := goldenScalingOptions("halo3d", 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := good
	bad.Stencil = "halo2d"
	if err := bad.Validate(); err == nil {
		t.Error("unknown stencil accepted")
	}
	bad = good
	bad.Topology = "torus"
	if err := bad.Validate(); err == nil {
		t.Error("unknown topology accepted")
	}
	bad = good
	bad.Shards = 9
	if err := bad.Validate(); err == nil {
		t.Error("shards > smallest rank count accepted")
	}
	if got := ScalingRanks(512); len(got) != 4 || got[0] != 8 || got[3] != 512 {
		t.Errorf("ScalingRanks(512) = %v", got)
	}
	if got := ScalingRanks(2); len(got) != 1 || got[0] != 8 {
		t.Errorf("ScalingRanks(2) = %v", got)
	}
}

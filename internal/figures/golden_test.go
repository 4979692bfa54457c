package figures

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScale is frozen independently of quick() so intentional changes to
// the quick sweep do not silently invalidate the regression baseline.
func goldenScale() Scale {
	return Scale{
		Name:        "golden",
		Iterations:  3,
		Warmup:      1,
		MetricSizes: []int64{64 << 10, 1 << 20, 16 << 20},
		PartCounts:  []int{1, 16},
		SweepGridPx: 2, SweepGridPy: 2,
		SweepSizes:   []int64{256 << 10},
		SweepRepeats: 1,
		SweepZBlocks: 2,
		SweepOctants: 4,
		HaloGrid:     2,
		HaloSizes:    []int64{512 << 10},
		HaloRepeats:  2,
		SnapNodes:    []int{2, 8},
	}
}

// TestGoldenFigures locks the exact output of every figure. The simulation
// is deterministic, so any diff means the model changed; run `go test
// ./internal/figures -run Golden -update` after an intentional calibration
// change and review the diff.
func TestGoldenFigures(t *testing.T) {
	sc := goldenScale()
	for _, fig := range Numbers() {
		fig := fig
		t.Run(fmt.Sprintf("fig%02d", fig), func(t *testing.T) {
			tables, err := Env{}.Generate(fig, sc)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, tab := range tables {
				if err := tab.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join("testdata", fmt.Sprintf("fig%02d.golden", fig))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("figure %d output diverged from golden baseline.\n--- got ---\n%s\n--- want ---\n%s",
					fig, buf.Bytes(), want)
			}
		})
	}
}

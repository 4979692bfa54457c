package figures

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/obs"
)

// TestPolicyWorkersByteIdentity is the scheduling acceptance property: for
// every cost function and worker count, a figure's CSV tables AND its
// deterministic obs journal are byte-identical to the index-order
// single-worker run — the dispatch order may only move wall-clock time
// around. The index-order baseline is additionally pinned to the committed
// golden file, so "identical to each other but all wrong" cannot pass.
func TestPolicyWorkersByteIdentity(t *testing.T) {
	sc := goldenScale()
	type costFn = func(r, c int) float64
	costs := []struct {
		name   string
		recost func(real costFn) costFn
	}{
		{"none", func(costFn) costFn { return nil }},
		{"real", nil},
		{"reversed", func(real costFn) costFn { return func(r, c int) float64 { return -real(r, c) } }},
		{"constant", func(costFn) costFn { return func(int, int) float64 { return 1 } }},
	}
	for _, fig := range []int{4, 9} {
		fig := fig
		t.Run(fmt.Sprintf("fig%02d", fig), func(t *testing.T) {
			render := func(recost func(costFn) costFn, workers int) (csv, journal []byte) {
				col := obs.NewCollector()
				rn := engine.New(engine.Workers(workers), engine.WithObserver(col))
				tables, err := Env{Runner: rn, recost: recost}.Generate(fig, sc)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				var buf bytes.Buffer
				for _, tab := range tables {
					if err := tab.WriteCSV(&buf); err != nil {
						t.Fatal(err)
					}
				}
				var jbuf bytes.Buffer
				if err := obs.WriteJournal(&jbuf, "test", col, false); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), jbuf.Bytes()
			}

			wantCSV, wantJournal := render(costs[0].recost, 1)
			golden, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("fig%02d.golden", fig)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantCSV, golden) {
				t.Fatal("index-order baseline diverged from the committed golden file")
			}
			for _, cost := range costs {
				for _, workers := range []int{1, 2, 8} {
					csv, journal := render(cost.recost, workers)
					if !bytes.Equal(csv, wantCSV) {
						t.Errorf("cost=%s workers=%d changed the CSV tables", cost.name, workers)
					}
					if !bytes.Equal(journal, wantJournal) {
						t.Errorf("cost=%s workers=%d changed the deterministic journal", cost.name, workers)
					}
				}
			}
		})
	}
}

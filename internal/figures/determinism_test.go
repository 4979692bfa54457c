package figures

import (
	"strings"
	"testing"

	"partmb/internal/engine"
)

// TestQuickFiguresDeterministic pins the engine's core guarantee: the
// simulation is deterministic, so rendering every figure at Quick scale on a
// parallel runner twice (a fresh runner and cache each pass) is
// byte-identical. Host concurrency may only change wall-clock time.
func TestQuickFiguresDeterministic(t *testing.T) {
	sc := quick()
	render := func() string {
		env := Env{Runner: engine.New(engine.Workers(8))}
		var sb strings.Builder
		for _, fig := range Numbers() {
			tables, err := env.Generate(fig, sc)
			if err != nil {
				t.Fatalf("figure %d: %v", fig, err)
			}
			for _, tb := range tables {
				if err := tb.WriteCSV(&sb); err != nil {
					t.Fatal(err)
				}
			}
		}
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("quick figures differ between two parallel runs")
	}
}

package engine

import (
	"testing"
	"time"

	"partmb/internal/sim"
	"partmb/internal/stats"
)

// seedCfg is the configuration of sampledCell: Seed selects the draw, RC
// the adaptive sampling config.
type seedCfg struct {
	Seed int
	RC   *stats.RunConfig `json:",omitempty"`
}

// sampledCell's fixed value is a constant, so its adaptive form converges
// at MinSamples draws.
var sampledCell = NewCell("test.sampled",
	func(c seedCfg) (seedCfg, *stats.RunConfig, bool) { return c, c.RC, false },
	func(_ *sim.Arena, c seedCfg, _ []int64) (float64, error) { return 2, nil },
	func(c *Cell[seedCfg, float64], r *Runner, cfg seedCfg, args []int64) (float64, error) {
		_, est, err := c.Draws(r, cfg, args, func(c seedCfg, d int) seedCfg {
			c.RC, c.Seed = nil, d
			return c
		}, func(v float64) float64 { return v })
		return est.Mean, err
	})

func TestCellKeyHashesKindConfigAndArgs(t *testing.T) {
	cfg := execCfg{N: 1}
	want, err := Key("test.kind", cfg, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := testCell.Key(cfg, 3, 4); got != want {
		t.Errorf("Key = %s, want Key(kind, cfg, args...) = %s", got, want)
	}
	if got := testCell.Key(execCfg{N: 1, Hidden: true}); got != "" {
		t.Errorf("attached config keyed %q, want uncacheable", got)
	}
}

func TestCellTaskRoundTrips(t *testing.T) {
	raw := encodeTask(execCfg{N: 5}, []int64{7, 8})
	if string(raw) != `{"cfg":{"N":5},"args":[7,8]}` {
		t.Fatalf("task = %s", raw)
	}
	v, err := LookupKind("test.kind")(nil, raw)
	if err != nil || v.(execVal).N != 5 {
		t.Errorf("worker-side execute = %v, %v; want {5}", v, err)
	}
	if raw := encodeTask(execCfg{Shape: time.Second}, nil); raw != nil {
		t.Errorf("config that does not decode back encoded as %s", raw)
	}
}

func TestSampledCellDrawsAreCells(t *testing.T) {
	rc, _ := stats.ParseRunConfig("") // the defaults
	r := New(Workers(1))
	v, err := sampledCell.Run(r, seedCfg{RC: &rc})
	if err != nil || v != 2 {
		t.Fatalf("sampled value = %v, %v; want 2", v, err)
	}
	// MinSamples draws plus the sampled cell itself, each a keyed run.
	if st := r.Stats(); st.Runs != int64(rc.MinSamples)+1 {
		t.Errorf("runs = %d, want %d draws + 1", st.Runs, rc.MinSamples)
	}
	if _, err := sampledCell.Run(r, seedCfg{RC: &rc}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d after a repeat, want the sampled cell memoized", st.Hits)
	}

	// A wall-clock budget leaves the sampled cell unkeyed: it recomputes,
	// and only its draws hit.
	budget := rc
	budget.Budget = time.Hour
	if key := sampledCell.Key(seedCfg{RC: &budget}); key != "" {
		t.Fatalf("budgeted key = %q, want uncacheable", key)
	}
	before := r.Stats()
	if _, err := sampledCell.Run(r, seedCfg{RC: &budget}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Runs-before.Runs != 1 || st.Hits-before.Hits != int64(rc.MinSamples) {
		t.Errorf("budgeted repeat: %d runs, %d hits; want 1 and %d", st.Runs-before.Runs, st.Hits-before.Hits, rc.MinSamples)
	}

	bad := rc
	bad.MinSamples = 1
	if _, err := sampledCell.Run(r, seedCfg{RC: &bad}); err == nil {
		t.Error("invalid sampling config accepted")
	}
}

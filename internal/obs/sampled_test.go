package obs

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// sampledValue is a cell result that reports adaptive sampling stats.
type sampledValue struct {
	simValue
	N      int
	Rel    float64
	Reason string
}

func (s sampledValue) SampleStats() (int, float64, string) { return s.N, s.Rel, s.Reason }

func runSampledSweep(t *testing.T, opts ...engine.Option) *Collector {
	t.Helper()
	col := NewCollector()
	rn := engine.New(append([]engine.Option{engine.WithObserver(col)}, opts...)...)
	rn.SetExperiment("sampled")
	_, err := rn.Grid(context.Background(), 2, 4, nil, func(ctx context.Context, r, c int) (any, error) {
		key := fmt.Sprintf("scell-%d-%d", r, c)
		return rn.Do(key, func() (any, error) {
			v := sampledValue{simValue: simValue{V: r*4 + c, SimNS: sim.Duration(1000 * (c + 1))}}
			if r == 0 {
				// Row 0 is adaptive; even columns converged, odd exhausted.
				v.N, v.Rel = 4+c, 0.01*float64(c+1)
				v.Reason = stats.ReasonConverged
				if c%2 == 1 {
					v.Reason = stats.ReasonMaxSamples
				}
			}
			// Row 1 is the fixed path: N==0, no sampling fields at all.
			return v, nil
		})
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return col
}

func TestCellRecordsSampleStats(t *testing.T) {
	col := runSampledSweep(t)
	var sampled, fixed int
	for _, c := range col.cellList() {
		if c.Samples > 0 {
			sampled++
			if c.CIRel <= 0 || c.CIReason == "" {
				t.Fatalf("sampled cell missing CI fields: %+v", c)
			}
		} else {
			fixed++
			if c.CIRel != 0 || c.CIReason != "" {
				t.Fatalf("fixed-path cell carries CI fields: %+v", c)
			}
		}
	}
	if sampled != 4 || fixed != 4 {
		t.Fatalf("sampled/fixed split = %d/%d, want 4/4", sampled, fixed)
	}

	m := buildMetrics("test", col)
	// Row 0: N = 4..7 across columns 0..3 → 4+5+6+7 = 22 draws, of which
	// even columns (N=4, N=6) converged.
	if m.Totals.SamplesTotal != 22 {
		t.Fatalf("SamplesTotal = %d, want 22", m.Totals.SamplesTotal)
	}
	if m.Totals.Converged != 2 {
		t.Fatalf("Converged = %d, want 2", m.Totals.Converged)
	}

	// The fixed-path journal must not mention sampling fields anywhere.
	fixedCol := NewCollector()
	rn := engine.New(engine.WithObserver(fixedCol))
	rn.SetExperiment("fixed")
	if _, err := rn.Grid(context.Background(), 2, 2, nil, func(ctx context.Context, r, c int) (any, error) {
		return rn.Do(fmt.Sprintf("f-%d-%d", r, c), func() (any, error) {
			return simValue{V: r, SimNS: 100}, nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJournal(&buf, "test", fixedCol, false); err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"samples", "ci_rel", "ci_reason"} {
		if bytes.Contains(buf.Bytes(), []byte(forbidden)) {
			t.Fatalf("fixed-path journal mentions %q:\n%s", forbidden, buf.Bytes())
		}
	}
}

// TestAdaptiveJournalByteStable runs a real adaptive core sweep through
// observed runners at several worker counts and, cell by cell, under every
// kind of cost function: the journal (and therefore every sampled CI) must
// be byte-identical, proving adaptive sampling kept the determinism
// contract.
func TestAdaptiveJournalByteStable(t *testing.T) {
	rc, err := stats.ParseRunConfig("min=2,max=8,ci=0.05")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Partitions: 4,
		Iterations: 2,
		Warmup:     1,
		Adaptive:   &rc,
	}
	sizes := core.MessageSizes(32<<10, 256<<10)

	journal := func(workers int, sweep func(rn *engine.Runner) error) []byte {
		col := NewCollector()
		rn := engine.New(engine.Workers(workers), engine.WithObserver(col))
		rn.SetExperiment("adaptive-sweep")
		if err := sweep(rn); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJournal(&buf, "test", col, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	real := func(rn *engine.Runner) error {
		_, err := core.SweepMessageSizes(rn, cfg, sizes)
		return err
	}
	// withCost is SweepMessageSizes' cell loop under a cost function of the
	// test's choosing instead of core's size x partitions heuristic.
	withCost := func(cost func(i int) float64) func(rn *engine.Runner) error {
		return func(rn *engine.Runner) error {
			_, err := rn.Sweep(context.Background(), len(sizes), cost, func(_ context.Context, i int) (any, error) {
				c := cfg
				c.MessageBytes = sizes[i]
				return core.RunCached(rn, c)
			})
			return err
		}
	}

	ref := journal(1, real)
	if !bytes.Contains(ref, []byte("ci_reason")) {
		t.Fatal("adaptive sweep journal carries no sampling fields")
	}
	for name, sweep := range map[string]func(*engine.Runner) error{
		"real":     real,
		"none":     withCost(nil),
		"reversed": withCost(func(i int) float64 { return -float64(sizes[i]) }),
		"constant": withCost(func(int) float64 { return 1 }),
	} {
		for _, workers := range []int{1, 2, 8} {
			if got := journal(workers, sweep); !bytes.Equal(ref, got) {
				t.Fatalf("adaptive journal differs at cost=%s -workers %d", name, workers)
			}
		}
	}
}

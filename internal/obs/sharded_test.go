package obs

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/sim"
)

// shardedValue is a cell result that exposes sharded-kernel counters.
type shardedValue struct {
	simValue
	Shard *sim.ShardStats
}

func (s shardedValue) ShardRun() *sim.ShardStats { return s.Shard }

// runShardedSweep resolves four cells twice each (so memo hits occur): two
// sharded, two sequential (nil ShardRun).
func runShardedSweep(t *testing.T) *Collector {
	t.Helper()
	col := NewCollector()
	rn := engine.New(engine.WithObserver(col))
	rn.SetExperiment("sharded")
	_, err := rn.Grid(context.Background(), 2, 4, nil, func(ctx context.Context, r, c int) (any, error) {
		key := fmt.Sprintf("shcell-%d", c)
		return rn.Do(key, func() (any, error) {
			v := shardedValue{simValue: simValue{V: c, SimNS: sim.Duration(1000)}}
			if c < 2 {
				v.Shard = &sim.ShardStats{
					Shards: 4, Workers: 2,
					Windows: int64(10 * (c + 1)), Events: int64(100 * (c + 1)),
					Steals: int64(c + 1), ImbalanceMean: float64(c + 2),
				}
			}
			return v, nil
		})
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return col
}

func TestCellRecordsShardStats(t *testing.T) {
	col := runShardedSweep(t)
	var shardedRuns, bare int
	for _, c := range col.cellList() {
		if c.ShardWindows > 0 {
			if c.Source != "run" {
				// Memo hits share the run's Result pointer; recording the
				// counters again would double count them in the metrics.
				t.Fatalf("shard stats recorded for source %q: %+v", c.Source, c)
			}
			shardedRuns++
			if c.ShardEvents == 0 || c.ShardWorkers != 2 || c.ShardImbalance == 0 {
				t.Fatalf("incomplete shard record %+v", c)
			}
		} else {
			bare++
		}
	}
	// 2 sharded run cells; everything else (2 sequential runs + 4 memo hits)
	// journals no shard fields.
	if shardedRuns != 2 || bare != 6 {
		t.Fatalf("sharded/bare split = %d/%d, want 2/6", shardedRuns, bare)
	}

	m := buildMetrics("test", col)
	if m.Shard == nil {
		t.Fatal("metrics missing shard summary")
	}
	if m.Shard.Cells != 2 || m.Shard.Windows != 30 || m.Shard.Events != 300 || m.Shard.Steals != 3 {
		t.Fatalf("shard summary %+v", m.Shard)
	}
	if m.Shard.MaxWorkers != 2 {
		t.Fatalf("MaxWorkers = %d", m.Shard.MaxWorkers)
	}
	// Windows-weighted imbalance: (2*10 + 3*20) / 30.
	if want := (2.0*10 + 3.0*20) / 30; m.Shard.ImbalanceMean != want {
		t.Fatalf("ImbalanceMean = %v, want %v", m.Shard.ImbalanceMean, want)
	}

	// A purely sequential sweep reports no shard summary at all.
	seq, _ := runSweep(t)
	if m := buildMetrics("test", seq); m.Shard != nil {
		t.Fatalf("sequential sweep grew a shard summary %+v", m.Shard)
	}
}

func TestDeterministicJournalOmitsShardFields(t *testing.T) {
	col := runShardedSweep(t)

	// Deterministic journals zero the shard telemetry — it tracks
	// GOMAXPROCS and steal luck, so it is volatile like host time.
	var det bytes.Buffer
	if err := WriteJournal(&det, "test", col, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(det.Bytes(), []byte("shard_")) {
		t.Fatalf("deterministic journal mentions shard fields:\n%s", det.Bytes())
	}

	// Host journals keep them.
	var host bytes.Buffer
	if err := WriteJournal(&host, "test", col, true); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard_windows", "shard_events", "shard_workers", "shard_steals", "shard_imbalance"} {
		if !bytes.Contains(host.Bytes(), []byte(want)) {
			t.Fatalf("host journal missing %q:\n%s", want, host.Bytes())
		}
	}

	// Round trip: parsed host journal preserves the counters.
	j, err := ReadJournal(&host)
	if err != nil {
		t.Fatal(err)
	}
	var windows int64
	for _, c := range j.Cells {
		windows += c.ShardWindows
	}
	if windows != 30 {
		t.Fatalf("round-tripped shard windows = %d, want 30", windows)
	}
}

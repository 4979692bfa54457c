package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/figures"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// simValue is a cell result that reports virtual time.
type simValue struct {
	V     int          `json:"v"`
	SimNS sim.Duration `json:"sim_ns"`
}

func (s simValue) SimElapsed() sim.Duration { return s.SimNS }

// gridValue is the value of runSweep's synthetic cells: a function of their
// (row, column) config.
func gridValue(c [2]int) simValue {
	return simValue{V: c[0]*4 + c[1], SimNS: sim.Duration(1000 * (c[1] + 1))}
}

// gridCell is runSweep's synthetic cell.
var gridCell = engine.NewCell("grid",
	func(c [2]int) ([2]int, *stats.RunConfig, bool) { return c, nil, false },
	func(_ *sim.Arena, c [2]int, _ []int64) (simValue, error) { return gridValue(c), nil }, nil)

// flakyTries counts flakyCell's attempts per config.
var (
	flakyMu    sync.Mutex
	flakyTries map[[2]int]int
)

// flakyCell is gridCell under another kind whose attempts fail transiently
// as a pure function of (config, attempt): a config fails its first
// (row+column) mod 3 attempts, which the engine's retries always outlast.
var flakyCell = engine.NewCell("flaky",
	func(c [2]int) ([2]int, *stats.RunConfig, bool) { return c, nil, false },
	func(_ *sim.Arena, c [2]int, _ []int64) (simValue, error) {
		flakyMu.Lock()
		flakyTries[c]++
		attempt := flakyTries[c]
		flakyMu.Unlock()
		if attempt <= (c[0]+c[1])%3 {
			return simValue{}, engine.Transientf("flaky cell %v, attempt %d", c, attempt)
		}
		return gridValue(c), nil
	}, nil)

// runSweep executes a synthetic 4x4 grid with duplicate keys (so memo hits
// occur) on a fresh observed runner and returns the collector and runner.
func runSweep(t *testing.T, opts ...engine.Option) (*Collector, *engine.Runner) {
	return runSweepOf(t, gridCell, opts...)
}

// runSweepOf is runSweep over cell.
func runSweepOf(t *testing.T, cell *engine.Cell[[2]int, simValue], opts ...engine.Option) (*Collector, *engine.Runner) {
	t.Helper()
	col := NewCollector()
	rn := engine.New(append([]engine.Option{engine.WithObserver(col)}, opts...)...)
	rn.SetExperiment("sweep")
	_, err := rn.Grid(context.Background(), 4, 4, nil, func(ctx context.Context, r, c int) (any, error) {
		// Two rows share each key, so half the cells memo-hit.
		return cell.Run(rn, [2]int{r / 2, c})
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return col, rn
}

func TestJournalRoundTripMatchesEngineStats(t *testing.T) {
	col, rn := runSweep(t)
	var buf bytes.Buffer
	if err := WriteJournal(&buf, "test", col, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	j, err := ReadJournal(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if j.Schema != JournalSchema || j.Tool != "test" {
		t.Fatalf("header = %+v", j)
	}
	if len(j.Tasks) != 16 {
		t.Fatalf("journal has %d tasks, want 16", len(j.Tasks))
	}
	if len(j.Cells) != 16 {
		t.Fatalf("journal has %d cell records, want 16", len(j.Cells))
	}
	// The parsed stats trailer, the collector's tallies, and the engine's
	// own counters must all agree.
	if j.Stats != col.tallies() {
		t.Fatalf("stats trailer %+v != tallies %+v", j.Stats, col.tallies())
	}
	st := rn.Stats()
	if diff := j.Stats.diffStats(st); diff != "" {
		t.Fatalf("journal stats %+v vs engine stats %+v: %s", j.Stats, st, diff)
	}
	if j.Stats.Cells != 16 || j.Stats.Runs != 8 || j.Stats.MemoHits != 8 {
		t.Fatalf("unexpected tallies %+v", j.Stats)
	}
	// Virtual sim time must round-trip off the SimTimed values.
	var sim int64
	for _, c := range j.Cells {
		sim += c.SimNS
	}
	if sim == 0 {
		t.Fatal("no cell carried virtual sim time")
	}
}

func TestJournalByteStableAcrossWorkerCounts(t *testing.T) {
	var got [2][]byte
	for i, workers := range []int{1, 8} {
		col, _ := runSweep(t, engine.Workers(workers))
		var buf bytes.Buffer
		if err := WriteJournal(&buf, "test", col, false); err != nil {
			t.Fatalf("write: %v", err)
		}
		got[i] = buf.Bytes()
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Fatalf("journal differs between -workers 1 and -workers 8:\n%s\n---\n%s", got[0], got[1])
	}
}

func TestJournalRecordsRetriesAndFaults(t *testing.T) {
	flakyMu.Lock()
	flakyTries = map[[2]int]int{}
	flakyMu.Unlock()
	col, rn := runSweepOf(t, flakyCell)
	st := rn.Stats()
	if st.Retries == 0 {
		t.Fatal("no attempt failed — the test is vacuous")
	}
	var buf bytes.Buffer
	if err := WriteJournal(&buf, "test", col, false); err != nil {
		t.Fatalf("write: %v", err)
	}
	j, err := ReadJournal(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if diff := j.Stats.diffStats(st); diff != "" {
		t.Fatalf("journal stats %+v vs engine stats %+v: %s", j.Stats, st, diff)
	}
	var retried int
	for _, c := range j.Cells {
		if c.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no journal cell shows attempts > 1 despite engine retries")
	}
}

func TestJournalWithDiskCache(t *testing.T) {
	dc, err := engine.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Cold run populates, warm run must journal disk hits.
	_, cold := runSweep(t, engine.WithDiskCache(dc))
	if cold.Stats().DiskWrites == 0 {
		t.Fatal("cold run persisted nothing")
	}
	col, rn := runSweep(t, engine.WithDiskCache(dc))
	st := rn.Stats()
	if st.DiskHits == 0 || st.Runs != 0 {
		t.Fatalf("warm run did not replay from disk: %+v", st)
	}
	if tl := col.tallies(); tl.DiskHits != st.DiskHits {
		t.Fatalf("collector disk hits %d != engine %d", tl.DiskHits, st.DiskHits)
	}
	if diff := col.tallies().diffStats(st); diff != "" {
		t.Fatalf("tallies vs stats: %s", diff)
	}
}

// traceEvent mirrors the Chrome trace-event fields the validity checks
// need.
type traceEvent struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TsUs  float64 `json:"ts"`
	DurUs float64 `json:"dur"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
}

func TestChromeTraceValidity(t *testing.T) {
	col, rn := runSweep(t, engine.Workers(4))
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col); err != nil {
		t.Fatalf("write: %v", err)
	}
	var events []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	if int64(len(events)) != rn.Stats().Cells {
		t.Fatalf("%d trace events, want one per cell (%d)", len(events), rn.Stats().Cells)
	}
	// Spans must be well-formed and must not overlap within a worker lane:
	// a task holds its lane for its whole run.
	byTid := map[int][]traceEvent{}
	for _, ev := range events {
		if ev.Phase != "X" {
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
		if ev.DurUs < 0 || ev.TsUs < 0 {
			t.Fatalf("negative time in event %+v", ev)
		}
		byTid[ev.Tid] = append(byTid[ev.Tid], ev)
	}
	for tid, lane := range byTid {
		sort.Slice(lane, func(i, j int) bool { return lane[i].TsUs < lane[j].TsUs })
		for i := 1; i < len(lane); i++ {
			if lane[i].TsUs < lane[i-1].TsUs+lane[i-1].DurUs {
				t.Fatalf("lane %d: span %q (ts=%v) overlaps previous %q (ends %v)",
					tid, lane[i].Name, lane[i].TsUs, lane[i-1].Name, lane[i-1].TsUs+lane[i-1].DurUs)
			}
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	col, rn := runSweep(t)
	m := buildMetrics("test", col)
	if m.Schema != MetricsSchema {
		t.Fatalf("schema = %d", m.Schema)
	}
	if len(m.Experiments) != 1 || m.Experiments[0].Name != "sweep" {
		t.Fatalf("experiments = %+v", m.Experiments)
	}
	exp := m.Experiments[0]
	st := rn.Stats()
	if int64(exp.Tasks) != st.Cells || exp.Runs != st.Runs || exp.MemoHits != st.Hits {
		t.Fatalf("summary %+v does not match engine stats %+v", exp, st)
	}
	if exp.Host == nil || exp.Host.TotalNS <= 0 {
		t.Fatalf("missing host-time summary: %+v", exp.Host)
	}
	if exp.SimTotalNS <= 0 {
		t.Fatal("missing virtual sim time total")
	}
	if m.Totals.Tasks != exp.Tasks {
		t.Fatalf("totals %+v != single experiment %+v", m.Totals, exp)
	}
}

// TestFigureJournalMatchesEngineStats is the acceptance check at the real
// workload: a quick-scale figure run's journal must account for exactly
// the cells the engine scheduled.
func TestFigureJournalMatchesEngineStats(t *testing.T) {
	col := NewCollector()
	rn := engine.New(engine.WithObserver(col))
	env := figures.Env{Runner: rn}
	sc, _ := figures.ScaleByName("quick")
	for _, fig := range []int{4, 13} {
		if _, err := env.Generate(fig, sc); err != nil {
			t.Fatalf("fig %d: %v", fig, err)
		}
	}
	st := rn.Stats()
	var buf bytes.Buffer
	if err := WriteJournal(&buf, "figures", col, false); err != nil {
		t.Fatal(err)
	}
	j, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if diff := j.Stats.diffStats(st); diff != "" {
		t.Fatalf("journal stats %+v vs engine stats %+v: %s", j.Stats, st, diff)
	}
	if int64(len(j.Tasks)) != st.Cells {
		t.Fatalf("%d task records, engine scheduled %d cells", len(j.Tasks), st.Cells)
	}
	// Per-experiment attribution must partition the run counts.
	var labeled int64
	for _, n := range st.ExperimentRuns {
		labeled += n
	}
	if labeled != st.Runs {
		t.Fatalf("experiment-labeled runs %d != total runs %d (%v)", labeled, st.Runs, st.ExperimentRuns)
	}
}

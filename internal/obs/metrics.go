package obs

import (
	"encoding/json"
	"io"
	"sort"

	"partmb/internal/stats"
)

// MetricsSchema versions the aggregated metrics JSON.
const MetricsSchema = 1

// HostSummary is the distribution of per-task host wall times within one
// experiment, computed with internal/stats.
type HostSummary struct {
	TotalNS  int64   `json:"total_ns"`
	MeanNS   float64 `json:"mean_ns"`
	MedianNS float64 `json:"median_ns"`
	P95NS    float64 `json:"p95_ns"`
	MaxNS    float64 `json:"max_ns"`
}

// ExperimentSummary aggregates one experiment label's records.
type ExperimentSummary struct {
	Name string `json:"name"`
	// Tasks is the number of scheduled grid/map slots.
	Tasks int `json:"tasks"`
	// Runs / MemoHits / DiskHits / Retries / Errors tally the experiment's
	// cell resolutions.
	Runs     int64 `json:"runs"`
	MemoHits int64 `json:"memo_hits"`
	DiskHits int64 `json:"disk_hits"`
	Retries  int64 `json:"retries,omitempty"`
	Errors   int64 `json:"errors,omitempty"`
	// SimTotalNS is the total virtual simulated time the experiment's run
	// cells covered.
	SimTotalNS int64 `json:"sim_total_ns"`
	// Host summarizes per-task host wall times (nil when no tasks ran).
	Host *HostSummary `json:"host,omitempty"`
	// CellsPerSec is tasks divided by the experiment's host-time span
	// (first task start to last task end) — the engine-level throughput
	// figure the perf gate tracks.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// SamplesTotal totals adaptive sampling draws across the experiment's
	// cells; Converged counts sampled cells that met their CI target. Both
	// zero (and omitted) when adaptive sampling is off.
	SamplesTotal int64 `json:"samples_total,omitempty"`
	Converged    int64 `json:"converged,omitempty"`
}

// ScheduleSummary describes how the engine packed the sweep onto its
// worker lanes: the makespan (first task start to last task end), total
// lane busy and idle time, and the utilization the dispatch order
// achieved. This is the observability view of engine.Stats' scheduling
// fields, reconstructed purely from task records.
type ScheduleSummary struct {
	// Workers is the number of distinct lanes tasks ran on.
	Workers int `json:"workers"`
	// MakespanNS spans the first task start to the last task end.
	MakespanNS int64 `json:"makespan_ns"`
	// BusyNS totals per-task host time across all lanes; IdleNS is
	// Workers x Makespan minus BusyNS.
	BusyNS int64 `json:"busy_ns"`
	IdleNS int64 `json:"idle_ns"`
	// UtilizationPct is 100 x BusyNS / (Workers x MakespanNS).
	UtilizationPct float64 `json:"utilization_pct"`
}

// Metrics is the aggregated metrics document.
type Metrics struct {
	Schema      int                 `json:"schema"`
	Tool        string              `json:"tool,omitempty"`
	Experiments []ExperimentSummary `json:"experiments"`
	Totals      ExperimentSummary   `json:"totals"`
	// Schedule summarizes lane packing across the whole run (nil when no
	// task ran).
	Schedule *ScheduleSummary `json:"schedule,omitempty"`
	// Remote summarizes per-worker distributed execution (absent on local
	// runs).
	Remote []RemoteWorkerSummary `json:"remote,omitempty"`
	// Shard summarizes sharded-kernel execution across all run cells
	// (absent when every cell used the sequential kernel).
	Shard *ShardSummary `json:"shard,omitempty"`
}

// ShardSummary aggregates the sharded DES kernel's execution counters
// across every cell that ran on a multi-shard group: total windows and
// events, rebalancing steals made by the work-stealing dispatch, the widest
// worker pool observed, and the windows-weighted mean imbalance ratio
// (max/mean events per window; 1.0 is perfectly balanced).
type ShardSummary struct {
	Cells         int64   `json:"cells"`
	Windows       int64   `json:"windows"`
	Events        int64   `json:"events"`
	Steals        int64   `json:"steals"`
	MaxWorkers    int     `json:"max_workers"`
	ImbalanceMean float64 `json:"imbalance_mean"`
}

// RemoteWorkerSummary aggregates the cells one remote worker executed in a
// distributed run: how many, the worker's own measured execution time, and
// how many ended in a permanent error. Sorted by name in Metrics.
type RemoteWorkerSummary struct {
	Name  string `json:"name"`
	Cells int64  `json:"cells"`
	// HostNS totals the worker-side measured execution time — the cost the
	// coordinator's dispatch predictions are learned from.
	HostNS int64 `json:"host_ns"`
	Errors int64 `json:"errors,omitempty"`
}

// buildMetrics aggregates the collector's records per experiment label.
func buildMetrics(tool string, c *Collector) Metrics {
	tasks, cells := c.taskList(), c.cellList()
	names := map[string]bool{}
	for _, t := range tasks {
		names[t.Experiment] = true
	}
	for _, cl := range cells {
		names[cl.Experiment] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	m := Metrics{Schema: MetricsSchema, Tool: tool}
	for _, name := range sorted {
		m.Experiments = append(m.Experiments, summarize(name, tasks, cells, func(exp string) bool { return exp == name }))
	}
	m.Totals = summarize("total", tasks, cells, func(string) bool { return true })
	m.Schedule = summarizeSchedule(tasks)
	m.Remote = summarizeRemote(cells)
	m.Shard = summarizeShard(cells)
	return m
}

// summarizeShard aggregates the cells that ran on the sharded kernel (nil
// when none did). The mean imbalance is weighted by each cell's window
// count, so many-window cells dominate the way they dominate wall clock.
func summarizeShard(cells []Cell) *ShardSummary {
	s := &ShardSummary{}
	var imbalance float64
	for _, cl := range cells {
		if cl.ShardWindows == 0 {
			continue
		}
		s.Cells++
		s.Windows += cl.ShardWindows
		s.Events += cl.ShardEvents
		s.Steals += cl.ShardSteals
		if cl.ShardWorkers > s.MaxWorkers {
			s.MaxWorkers = cl.ShardWorkers
		}
		imbalance += cl.ShardImbalance * float64(cl.ShardWindows)
	}
	if s.Cells == 0 {
		return nil
	}
	s.ImbalanceMean = imbalance / float64(s.Windows)
	return s
}

// summarizeRemote aggregates cells by the remote worker that executed them
// (nil when every cell ran locally).
func summarizeRemote(cells []Cell) []RemoteWorkerSummary {
	byName := map[string]*RemoteWorkerSummary{}
	for _, cl := range cells {
		if cl.Remote == "" {
			continue
		}
		s := byName[cl.Remote]
		if s == nil {
			s = &RemoteWorkerSummary{Name: cl.Remote}
			byName[cl.Remote] = s
		}
		s.Cells++
		s.HostNS += cl.RemoteHostNS
		if cl.Outcome == "error" {
			s.Errors++
		}
	}
	if len(byName) == 0 {
		return nil
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]RemoteWorkerSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// summarizeSchedule reconstructs the lane-packing summary from the task
// records (nil when none).
func summarizeSchedule(tasks []Task) *ScheduleSummary {
	if len(tasks) == 0 {
		return nil
	}
	s := &ScheduleSummary{}
	workers := map[int]bool{}
	var span0, span1 int64
	for i, t := range tasks {
		workers[t.Worker] = true
		s.BusyNS += t.EndNS - t.StartNS
		if i == 0 || t.StartNS < span0 {
			span0 = t.StartNS
		}
		if t.EndNS > span1 {
			span1 = t.EndNS
		}
	}
	s.Workers = len(workers)
	if s.MakespanNS = span1 - span0; s.MakespanNS > 0 {
		avail := int64(s.Workers) * s.MakespanNS
		s.IdleNS = avail - s.BusyNS
		s.UtilizationPct = 100 * float64(s.BusyNS) / float64(avail)
	}
	return s
}

// summarize aggregates the records whose experiment label passes keep.
func summarize(name string, tasks []Task, cells []Cell, keep func(string) bool) ExperimentSummary {
	s := ExperimentSummary{Name: name}
	var durs []float64
	var span0, span1 int64
	for _, t := range tasks {
		if !keep(t.Experiment) {
			continue
		}
		s.Tasks++
		durs = append(durs, float64(t.EndNS-t.StartNS))
		if span0 == 0 || t.StartNS < span0 {
			span0 = t.StartNS
		}
		if t.EndNS > span1 {
			span1 = t.EndNS
		}
	}
	for _, cl := range cells {
		if !keep(cl.Experiment) {
			continue
		}
		switch cl.Source {
		case "run":
			s.Runs += int64(cl.Attempts)
			s.Retries += int64(cl.Attempts - 1)
			s.SimTotalNS += cl.SimNS
		case "memo":
			s.MemoHits++
		case "disk":
			s.DiskHits++
		}
		if cl.Outcome == "error" {
			s.Errors++
		}
		if cl.Samples > 0 {
			s.SamplesTotal += int64(cl.Samples)
			if cl.CIReason == stats.ReasonConverged {
				s.Converged++
			}
		}
	}
	if len(durs) > 0 {
		sum := stats.Summarize(durs)
		var total int64
		for _, d := range durs {
			total += int64(d)
		}
		s.Host = &HostSummary{
			TotalNS:  total,
			MeanNS:   sum.Mean,
			MedianNS: sum.Median,
			P95NS:    sum.P95,
			MaxNS:    sum.Max,
		}
		if span := span1 - span0; span > 0 {
			s.CellsPerSec = float64(s.Tasks) / (float64(span) / 1e9)
		}
	}
	return s
}

// WriteMetrics renders the aggregated metrics as indented JSON.
func WriteMetrics(w io.Writer, tool string, c *Collector) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildMetrics(tool, c))
}

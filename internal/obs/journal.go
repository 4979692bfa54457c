package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JournalSchema versions the JSONL journal format. Bump it when the line
// shapes below change incompatibly.
const JournalSchema = 1

// The journal is JSON Lines: a header, one line per task, one line per
// cell, and a stats trailer, each tagged with "t". Deterministic journals
// (the default) omit the volatile fields (host times, worker lanes) and
// sort records by their deterministic fields, so two runs of the same
// sweep produce byte-identical journals regardless of worker count — a
// diffable experiment artifact, not a log.

type journalHeader struct {
	T      string `json:"t"` // "journal"
	Schema int    `json:"schema"`
	Tool   string `json:"tool,omitempty"`
	// Host records whether volatile host-timing fields were kept.
	Host bool `json:"host,omitempty"`
}

type taskLine struct {
	T string `json:"t"` // "task"
	Task
}

type cellLine struct {
	T string `json:"t"` // "cell"
	Cell
}

type statsLine struct {
	T string `json:"t"` // "stats"
	Tallies
}

// Journal is a parsed journal file.
type Journal struct {
	Schema int
	Tool   string
	Host   bool
	Tasks  []Task
	Cells  []Cell
	Stats  Tallies
}

// WriteJournal renders the collector's records as a JSONL journal. With
// withHost false (the deterministic default) volatile fields are zeroed
// and records are sorted by their deterministic fields; with withHost true
// host times and worker lanes are kept and records are additionally
// ordered by start time, which makes the journal a timeline but ties its
// bytes to the machine and schedule.
func WriteJournal(w io.Writer, tool string, c *Collector, withHost bool) error {
	tasks, cells := c.taskList(), c.cellList()
	if !withHost {
		for i := range tasks {
			tasks[i].Worker, tasks[i].StartNS, tasks[i].EndNS = 0, 0, 0
		}
		for i := range cells {
			// Where a cell ran (this process or a named remote worker) and
			// when are volatile, like HostNS: zeroing them is what keeps a
			// distributed run's journal byte-identical to a local run's.
			cells[i].HostNS, cells[i].StartNS = 0, 0
			cells[i].Remote, cells[i].RemoteHostNS = "", 0
			// A sharded run's deterministic journal must stay
			// byte-identical to the sequential run's, which has no shard
			// telemetry.
			cells[i].ShardWindows, cells[i].ShardEvents = 0, 0
			cells[i].ShardImbalance = 0
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool {
		a, b := tasks[i], tasks[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Index != b.Index {
			return a.Index < b.Index
		}
		if a.Outcome != b.Outcome {
			return a.Outcome < b.Outcome
		}
		return a.StartNS < b.StartNS
	})
	sort.SliceStable(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Outcome != b.Outcome {
			return a.Outcome < b.Outcome
		}
		if a.SimNS != b.SimNS {
			return a.SimNS < b.SimNS
		}
		return a.HostNS < b.HostNS
	})

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(journalHeader{T: "journal", Schema: JournalSchema, Tool: tool, Host: withHost}); err != nil {
		return err
	}
	for _, t := range tasks {
		if err := enc.Encode(taskLine{T: "task", Task: t}); err != nil {
			return err
		}
	}
	for _, cell := range cells {
		if err := enc.Encode(cellLine{T: "cell", Cell: cell}); err != nil {
			return err
		}
	}
	if err := enc.Encode(statsLine{T: "stats", Tallies: c.tallies()}); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadJournal parses a journal written by WriteJournal. It rejects unknown
// schemas and unknown line tags, so format drift fails loudly instead of
// silently dropping records.
func ReadJournal(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	j := &Journal{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		switch tag.T {
		case "journal":
			var h journalHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
			}
			if h.Schema != JournalSchema {
				return nil, fmt.Errorf("obs: journal schema %d, want %d", h.Schema, JournalSchema)
			}
			j.Schema, j.Tool, j.Host = h.Schema, h.Tool, h.Host
		case "task":
			var t taskLine
			if err := json.Unmarshal(raw, &t); err != nil {
				return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
			}
			j.Tasks = append(j.Tasks, t.Task)
		case "cell":
			var c cellLine
			if err := json.Unmarshal(raw, &c); err != nil {
				return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
			}
			j.Cells = append(j.Cells, c.Cell)
		case "stats":
			var s statsLine
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
			}
			j.Stats = s.Tallies
		default:
			return nil, fmt.Errorf("obs: journal line %d: unknown record %q", line, tag.T)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if j.Schema == 0 {
		return nil, fmt.Errorf("obs: journal has no header line")
	}
	return j, nil
}

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"partmb/internal/cliutil"
	"partmb/internal/engine"
	"partmb/internal/obs"
	"partmb/internal/report"
	"partmb/internal/stats"
)

// engineFlags bundles the experiment-engine flags the verbs share: worker
// bound, persistent cell cache, adaptive sampling, and the observability
// sinks (run journal, metric summary, Chrome trace). Zero value = engine
// defaults, observability off.
type engineFlags struct {
	// Workers bounds the parallel simulation workers (0 = GOMAXPROCS).
	Workers int
	// CacheDir, when non-empty, persists successful cells as JSON under
	// this directory and reuses them across invocations.
	CacheDir string
	// CacheMax, when non-empty, bounds the disk cache's total entry bytes
	// (cliutil.ParseSize syntax, e.g. "256MiB"); stores past the budget
	// evict least-recently-used cells. Empty means unlimited.
	CacheMax string
	// Journal, when non-empty, writes the deterministic JSONL run journal
	// (one record per task and cell, plus a stats trailer) to this path.
	Journal string
	// Metrics, when non-empty, writes the per-experiment metric summary
	// JSON (host-time distributions, cache tallies, cells/sec) here.
	Metrics string
	// TraceFile, when non-empty, writes the engine's host-time schedule as
	// Chrome trace-event JSON (open in Perfetto) here.
	TraceFile string
	// Samples, when non-empty, switches cells to adaptive confidence-
	// targeted sampling. The spec is stats.ParseRunConfig syntax
	// ("min=2,max=32,conf=0.95,ci=0.05,budget=1s"); the bare value "on"
	// selects the defaults. Empty keeps the fixed-rep path — and every
	// journal, table, and cache key byte-identical.
	Samples string

	// col is the collector Runner attached, nil when observability is
	// off; disk is the cell cache it opened, nil without -cachedir.
	col  *obs.Collector
	disk *engine.DiskCache
}

// RegisterFlags installs the shared engine flags on fs; -samples only for
// a verb whose cells honour it.
func (e *engineFlags) RegisterFlags(fs *flag.FlagSet, samples bool) {
	fs.IntVar(&e.Workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	fs.StringVar(&e.CacheDir, "cachedir", "", "persist cell results as JSON under this directory and reuse them across runs")
	fs.StringVar(&e.CacheMax, "cache-max", "", "bound the disk cache at this many bytes (e.g. 256MiB), evicting least-recently-used cells (default unlimited)")
	fs.StringVar(&e.Journal, "journal", "", "write the deterministic JSONL run journal to this file")
	fs.StringVar(&e.Metrics, "metrics", "", "write the per-experiment metric summary JSON to this file")
	fs.StringVar(&e.TraceFile, "tracefile", "", "write the engine schedule as Chrome trace JSON (Perfetto) to this file")
	if samples {
		fs.StringVar(&e.Samples, "samples", "", "adaptive sampling spec: min=A,max=B,conf=C,ci=R[,budget=D], or \"on\" for defaults (default off: fixed repetitions)")
	}
}

// RunConfig resolves the adaptive sampling flags into a run configuration,
// or nil when adaptive mode is off. Verbs hand the pointer straight to their
// experiment config's Adaptive field: nil keeps every fixed-path artifact
// byte-identical.
func (e *engineFlags) RunConfig() (*stats.RunConfig, error) {
	if e.Samples == "" {
		return nil, nil
	}
	spec := e.Samples
	if spec == "on" {
		spec = ""
	}
	rc, err := stats.ParseRunConfig(spec)
	if err != nil {
		return nil, fmt.Errorf("-samples: %w", err)
	}
	if err := rc.Validate(); err != nil {
		return nil, fmt.Errorf("adaptive sampling config: %w", err)
	}
	return &rc, nil
}

// Finish writes the requested observability artifacts, naming tool in
// their headers; it is a no-op when no sink was requested.
func (e *engineFlags) Finish(tool string) error {
	if e.col == nil {
		return nil
	}
	sinks := []struct {
		path  string
		write func(f *os.File) error
	}{
		{e.Journal, func(f *os.File) error { return obs.WriteJournal(f, tool, e.col, false) }},
		{e.Metrics, func(f *os.File) error { return obs.WriteMetrics(f, tool, e.col) }},
		{e.TraceFile, func(f *os.File) error { return obs.WriteChromeTrace(f, e.col) }},
	}
	for _, s := range sinks {
		if s.path == "" {
			continue
		}
		f, err := os.Create(s.path)
		if err != nil {
			return err
		}
		if err := s.write(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", s.path, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Runner builds the configured engine runner, with any extra options
// appended.
func (e *engineFlags) Runner(extra ...engine.Option) (*engine.Runner, error) {
	opts := []engine.Option{engine.Workers(e.Workers)}
	if e.CacheMax != "" && e.CacheDir == "" {
		return nil, fmt.Errorf("-cache-max needs -cachedir")
	}
	if e.CacheDir != "" {
		dc, err := engine.OpenDiskCache(e.CacheDir)
		if err != nil {
			return nil, err
		}
		if e.CacheMax != "" {
			budget, err := cliutil.ParseSize(e.CacheMax)
			if err != nil {
				return nil, fmt.Errorf("-cache-max: %w", err)
			}
			dc.SetBudget(budget)
		}
		e.disk = dc
		opts = append(opts, engine.WithDiskCache(dc))
	}
	if e.Journal != "" || e.Metrics != "" || e.TraceFile != "" {
		e.col = obs.NewCollector()
		opts = append(opts, engine.WithObserver(e.col))
	}
	return engine.New(append(opts, extra...)...), nil
}

// output bundles the shared table-output flags. Zero value renders text to
// stdout. Validate runs after flag parsing: the format flags conflict in
// combinations Emit cannot honour.
type output struct {
	// CSV / MD select the stdout format (text when both are false).
	CSV, MD bool
	// Spark appends a per-column sparkline summary to text output.
	Spark bool
	// Dir, when non-empty, writes per-table files there instead of using
	// stdout. The files are always CSV — the machine-readable interchange
	// format — regardless of the stdout format flags.
	Dir string
}

// RegisterFlags installs the shared output flags on fs.
func (o *output) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.CSV, "csv", false, "emit CSV on stdout (redundant with -out, which always writes CSV files)")
	fs.BoolVar(&o.MD, "md", false, "emit GitHub-flavoured markdown on stdout (conflicts with -out and -csv)")
	fs.BoolVar(&o.Spark, "spark", false, "append a per-column sparkline summary to text output")
	fs.StringVar(&o.Dir, "out", "", "write per-table CSV files to this directory instead of stdout")
}

// Validate rejects conflicting format flags, so a request Emit cannot
// honour (e.g. -md with -out, whose files are always CSV) fails loudly
// instead of silently emitting another format.
func (o output) Validate() error {
	if o.CSV && o.MD {
		return fmt.Errorf("-csv and -md are mutually exclusive")
	}
	if o.Dir != "" && o.MD {
		return fmt.Errorf("-md conflicts with -out: -out always writes CSV files")
	}
	return nil
}

// Emit renders the tables. With Dir set it writes table i to the CSV file
// "<prefix>_<i>.csv" there — always CSV, whatever the stdout format flags
// say — and returns the paths written; otherwise it streams the selected
// stdout format to w and returns nil.
func (o output) Emit(w io.Writer, tables []*report.Table, prefix string) ([]string, error) {
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, err
		}
		var paths []string
		for i, t := range tables {
			path := filepath.Join(o.Dir, fmt.Sprintf("%s_%d.csv", prefix, i))
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			paths = append(paths, path)
		}
		return paths, nil
	}
	for _, t := range tables {
		var err error
		switch {
		case o.CSV:
			err = t.WriteCSV(w)
		case o.MD:
			err = t.WriteMarkdown(w)
		default:
			err = t.WriteText(w)
			if err == nil && o.Spark {
				if s := t.SparkSummary(); s != "" {
					fmt.Fprintln(w, s)
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

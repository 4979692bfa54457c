package cliutil

import (
	"flag"
	"fmt"
	"os"

	"partmb/internal/engine"
	"partmb/internal/obs"
	"partmb/internal/stats"
)

// EngineFlags bundles the experiment-engine flags every CLI shares: worker
// bound, persistent cell cache, adaptive sampling, and the observability
// sinks (run journal, metric summary, Chrome trace). Zero value = engine
// defaults, observability off.
type EngineFlags struct {
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

	col  *obs.Collector
	disk *engine.DiskCache
}

// RegisterFlags installs the shared engine flags on fs.
func (e *EngineFlags) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&e.Workers, "workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	fs.StringVar(&e.CacheDir, "cachedir", "", "persist cell results as JSON under this directory and reuse them across runs")
	fs.StringVar(&e.CacheMax, "cache-max", "", "bound the disk cache at this many bytes (e.g. 256MiB), evicting least-recently-used cells (default unlimited)")
	fs.StringVar(&e.Journal, "journal", "", "write the deterministic JSONL run journal to this file")
	fs.StringVar(&e.Metrics, "metrics", "", "write the per-experiment metric summary JSON to this file")
	fs.StringVar(&e.TraceFile, "tracefile", "", "write the engine schedule as Chrome trace JSON (Perfetto) to this file")
	fs.StringVar(&e.Samples, "samples", "", "adaptive sampling spec: min=A,max=B,conf=C,ci=R[,budget=D], or \"on\" for defaults (default off: fixed repetitions)")
}

// RunConfig resolves the adaptive sampling flags into a run configuration,
// or nil when adaptive mode is off. CLIs hand the pointer straight to their
// experiment config's Adaptive field: nil keeps every fixed-path artifact
// byte-identical.
func (e *EngineFlags) RunConfig() (*stats.RunConfig, error) {
	if e.Samples == "" {
		return nil, nil
	}
	spec := e.Samples
	if spec == "on" {
		spec = ""
	}
	rc, err := stats.ParseRunConfig(spec)
	if err != nil {
		return nil, fmt.Errorf("cliutil: -samples: %w", err)
	}
	if err := rc.Validate(); err != nil {
		return nil, fmt.Errorf("cliutil: adaptive sampling config: %w", err)
	}
	return &rc, nil
}

// observing reports whether any observability sink was requested.
func (e *EngineFlags) observing() bool {
	return e.Journal != "" || e.Metrics != "" || e.TraceFile != ""
}

// Collector returns the collector attached by Runner, or nil when
// observability is off.
func (e *EngineFlags) Collector() *obs.Collector { return e.col }

// DiskCache returns the persistent cell cache Runner opened, or nil when
// -cachedir was not given. Services use it to surface size/eviction
// accounting.
func (e *EngineFlags) DiskCache() *engine.DiskCache { return e.disk }

// Finish writes the requested observability artifacts. Call it once, after
// the sweep, with the CLI's name (recorded in the artifact headers); it is a
// no-op when no sink was requested.
func (e *EngineFlags) Finish(tool string) error {
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
			return fmt.Errorf("cliutil: %w", err)
		}
		if err := s.write(f); err != nil {
			f.Close()
			return fmt.Errorf("cliutil: writing %s: %w", s.path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("cliutil: %w", err)
		}
	}
	return nil
}

// Runner builds the configured engine runner, with any extra options
// appended.
func (e *EngineFlags) Runner(extra ...engine.Option) (*engine.Runner, error) {
	opts := []engine.Option{engine.Workers(e.Workers)}
	if e.CacheMax != "" && e.CacheDir == "" {
		return nil, fmt.Errorf("cliutil: -cache-max needs -cachedir")
	}
	if e.CacheDir != "" {
		dc, err := engine.OpenDiskCache(e.CacheDir)
		if err != nil {
			return nil, err
		}
		if e.CacheMax != "" {
			budget, err := ParseSize(e.CacheMax)
			if err != nil {
				return nil, fmt.Errorf("cliutil: -cache-max: %w", err)
			}
			dc.SetBudget(budget)
		}
		e.disk = dc
		opts = append(opts, engine.WithDiskCache(dc))
	}
	if e.observing() {
		e.col = obs.NewCollector()
		opts = append(opts, engine.WithObserver(e.col))
	}
	return engine.New(append(opts, extra...)...), nil
}

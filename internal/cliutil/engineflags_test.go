package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// diskCell is a typed cell, so it persists to the disk cache.
var diskCell = engine.NewCell("cliutil.test",
	func(v int) (int, *stats.RunConfig, bool) { return v, nil, false },
	func(_ *sim.Arena, v int, _ []int64) (int, error) { return v, nil }, nil)

func TestEngineFlagsDefaults(t *testing.T) {
	var e EngineFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e.RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	rn, err := e.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rn.Do("k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestEngineFlagsRunnerWiring(t *testing.T) {
	dir := t.TempDir()
	var e EngineFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e.RegisterFlags(fs)
	err := fs.Parse([]string{
		"-workers", "2",
		"-cachedir", dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := e.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if rn.Workers() != 2 {
		t.Fatalf("workers = %d, want 2", rn.Workers())
	}
	if _, err := diskCell.Run(rn, 7); err != nil {
		t.Fatal(err)
	}
	st := rn.Stats()
	if st.DiskWrites != 1 {
		t.Fatalf("stats = %+v, want one disk write", st)
	}
	// The disk cache landed under the schema-versioned directory.
	matches, err := filepath.Glob(filepath.Join(dir, "v*", diskCell.Key(7)+".json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("persisted cells = %v, %v", matches, err)
	}
	if _, err := os.Stat(matches[0]); err != nil {
		t.Fatal(err)
	}
	// Finish without observability sinks writes nothing: the cache's
	// versioned directory stays the only thing under -cachedir.
	if err := e.Finish("test"); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("-cachedir holds %v (%v), want only the cache's own directory", entries, err)
	}
}

func TestEngineFlagsRejectsBadSpecs(t *testing.T) {
	for _, e := range []EngineFlags{
		{CacheMax: "256MiB"},
		{CacheDir: t.TempDir(), CacheMax: "lots"},
	} {
		if _, err := e.Runner(); err == nil {
			t.Errorf("Runner(%+v) accepted a bad spec", e)
		}
	}
}

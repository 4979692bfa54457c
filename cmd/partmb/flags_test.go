package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/report"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// diskCell is a typed cell, so it persists to the disk cache.
var diskCell = engine.NewCell("partmb.test",
	func(v int) (int, *stats.RunConfig, bool) { return v, nil, false },
	func(_ *sim.Arena, v int, _ []int64) (int, error) { return v, nil }, nil)

func TestEngineFlagsDefaults(t *testing.T) {
	var e engineFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e.RegisterFlags(fs, true)
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
	var e engineFlags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	e.RegisterFlags(fs, true)
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
	if lanes := len(rn.Stats().LaneBusy); lanes != 2 {
		t.Fatalf("%d worker lanes, want 2", lanes)
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
	for _, e := range []engineFlags{
		{CacheMax: "256MiB"},
		{CacheDir: t.TempDir(), CacheMax: "lots"},
	} {
		if _, err := e.Runner(); err == nil {
			t.Errorf("Runner(%+v) accepted a bad spec", e)
		}
	}
}

func TestEngineFlagsCacheMax(t *testing.T) {
	e := engineFlags{CacheDir: t.TempDir(), CacheMax: "1MiB"}
	if _, err := e.Runner(); err != nil {
		t.Fatal(err)
	}
	dc := e.disk
	if dc == nil {
		t.Fatal("Runner opened no disk cache with -cachedir set")
	}
	if acc := dc.Accounting(); acc.Budget != 1<<20 {
		t.Fatalf("budget = %d, want 1MiB", acc.Budget)
	}
}

func TestEngineFlagsCacheMaxNeedsCacheDir(t *testing.T) {
	e := engineFlags{CacheMax: "1MiB"}
	_, err := e.Runner()
	if err == nil || !strings.Contains(err.Error(), "-cachedir") {
		t.Fatalf("Runner() = %v, want a -cache-max needs -cachedir error", err)
	}
}

func TestEngineFlagsCacheMaxBadSize(t *testing.T) {
	e := engineFlags{CacheDir: t.TempDir(), CacheMax: "lots"}
	if _, err := e.Runner(); err == nil {
		t.Fatal("Runner() accepted -cache-max lots")
	}
}

func sampleTable() *report.Table {
	tb := report.New("sample", "size", "value")
	tb.AddF("1KiB", 1.5)
	tb.AddF("2KiB", 2.5)
	return tb
}

func TestOutputRegisterFlags(t *testing.T) {
	var o output
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	o.RegisterFlags(fs)
	if err := fs.Parse([]string{"-csv", "-out", "dir"}); err != nil {
		t.Fatal(err)
	}
	if !o.CSV || o.MD || o.Dir != "dir" {
		t.Fatalf("parsed flags = %+v", o)
	}
}

func TestOutputValidate(t *testing.T) {
	ok := []output{
		{},
		{CSV: true},
		{MD: true},
		{CSV: true, Dir: "d"}, // redundant, not conflicting: -out files are CSV anyway
		{Dir: "d"},
	}
	for _, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	bad := []output{
		{CSV: true, MD: true},
		{MD: true, Dir: "d"},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a conflicting combination", o)
		}
	}
}

func TestOutputEmitStdoutFormats(t *testing.T) {
	cases := []struct {
		o    output
		want string
	}{
		{output{}, "sample"},
		{output{CSV: true}, "size,value"},
		{output{MD: true}, "| size | value |"},
	}
	for _, c := range cases {
		var sb strings.Builder
		paths, err := c.o.Emit(&sb, []*report.Table{sampleTable()}, "")
		if err != nil || paths != nil {
			t.Fatalf("Emit(%+v) = %v, %v", c.o, paths, err)
		}
		if !strings.Contains(sb.String(), c.want) {
			t.Errorf("Emit(%+v) output %q missing %q", c.o, sb.String(), c.want)
		}
	}
}

func TestOutputEmitDir(t *testing.T) {
	dir := t.TempDir()
	o := output{Dir: filepath.Join(dir, "sub")}
	tables := []*report.Table{sampleTable(), sampleTable()}
	paths, err := o.Emit(nil, tables, "fig09")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || filepath.Base(paths[0]) != "fig09_0.csv" || filepath.Base(paths[1]) != "fig09_1.csv" {
		t.Fatalf("paths = %v", paths)
	}
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "size,value") {
		t.Fatalf("csv content = %q", data)
	}
}

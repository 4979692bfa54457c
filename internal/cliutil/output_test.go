package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partmb/internal/report"
)

func sampleTable() *report.Table {
	tb := report.New("sample", "size", "value")
	tb.AddF("1KiB", 1.5)
	tb.AddF("2KiB", 2.5)
	return tb
}

func TestOutputRegisterFlags(t *testing.T) {
	var o Output
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
	ok := []Output{
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
	bad := []Output{
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
		o    Output
		want string
	}{
		{Output{}, "sample"},
		{Output{CSV: true}, "size,value"},
		{Output{MD: true}, "| size | value |"},
	}
	for _, c := range cases {
		var sb strings.Builder
		paths, err := c.o.Emit(&sb, []*report.Table{sampleTable()}, nil)
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
	o := Output{Dir: filepath.Join(dir, "sub")}
	tables := []*report.Table{sampleTable(), sampleTable()}
	paths, err := o.Emit(nil, tables, IndexedName("fig%02d_%%d.csv", 9))
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

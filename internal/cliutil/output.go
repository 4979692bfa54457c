package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"partmb/internal/report"
)

// This file holds the flag plumbing every sweep CLI previously duplicated:
// the -csv/-md/-spark/-out output sink.

// Output bundles the shared table-output flags. Zero value renders text to
// stdout. Call Validate after flag parsing: the format flags conflict in
// combinations Emit cannot honour.
type Output struct {
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
func (o *Output) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&o.CSV, "csv", false, "emit CSV on stdout (redundant with -out, which always writes CSV files)")
	fs.BoolVar(&o.MD, "md", false, "emit GitHub-flavoured markdown on stdout (conflicts with -out and -csv)")
	fs.BoolVar(&o.Spark, "spark", false, "append a per-column sparkline summary to text output")
	fs.StringVar(&o.Dir, "out", "", "write per-table CSV files to this directory instead of stdout")
}

// Validate rejects conflicting format flags. It belongs right after flag
// parsing, so a request Emit cannot honour (e.g. -md with -out, whose
// files are always CSV) fails loudly instead of silently emitting another
// format.
func (o Output) Validate() error {
	if o.CSV && o.MD {
		return fmt.Errorf("cliutil: -csv and -md are mutually exclusive")
	}
	if o.Dir != "" && o.MD {
		return fmt.Errorf("cliutil: -md conflicts with -out: -out always writes CSV files")
	}
	return nil
}

// Emit renders the tables. With Dir set it writes one CSV file per table —
// always CSV, whatever the stdout format flags say (Validate rejects the
// combinations that would be surprising) — named by name(i) (e.g.
// "fig09_0.csv"), and returns the paths written; otherwise it streams the
// selected stdout format to w and returns nil.
func (o Output) Emit(w io.Writer, tables []*report.Table, name func(i int) string) ([]string, error) {
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, err
		}
		var paths []string
		for i, t := range tables {
			path := filepath.Join(o.Dir, name(i))
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

// IndexedName builds the name function Emit wants from a printf pattern with
// one %d verb for the table index, e.g. IndexedName("fig%02d_%%d.csv", fig).
func IndexedName(format string, args ...any) func(int) string {
	prefix := fmt.Sprintf(format, args...)
	return func(i int) string { return fmt.Sprintf(prefix, i) }
}

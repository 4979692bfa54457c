// Package report renders benchmark results as aligned text tables and CSV,
// the output formats of the figure-regeneration tools.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// New returns an empty table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// add appends a row; the cell count must match the column count.
func (t *Table) add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// AddF appends a row of formatted values: strings pass through, float64
// render with %.4g, ints with %d, everything else with %v.
func (t *Table) AddF(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.add(row...)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w2 := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w2))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (header row first; the title becomes a
// leading comment line).
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAllText renders several tables in sequence.
func WriteAllText(w io.Writer, tables []*Table) error {
	for _, t := range tables {
		if err := t.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the table as a GitHub-flavoured markdown table (the
// title becomes a heading).
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + c + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, cell := range row {
			b.WriteString(" " + cell + " |")
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// sparkLevels are the eight block glyphs used by spark.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders a numeric series as a unicode sparkline, scaled to the
// series' own min..max range ("▁▃▆█"). Empty input yields an empty string;
// a constant series renders at the lowest level.
func spark(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	min, max := values[0], values[0]
	for _, v := range values[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(values))
	for i, v := range values {
		level := 0
		if max > min {
			level = int((v - min) / (max - min) * float64(len(sparkLevels)-1))
		}
		if level < 0 {
			level = 0
		}
		if level >= len(sparkLevels) {
			level = len(sparkLevels) - 1
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}

// columnFloats extracts column i of the table's rows as floats, skipping
// cells that do not parse (e.g. "-" placeholders).
func (t *Table) columnFloats(i int) []float64 {
	if i < 0 || i >= len(t.Columns) {
		panic(fmt.Sprintf("report: column %d out of range [0,%d)", i, len(t.Columns)))
	}
	var out []float64
	for _, row := range t.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[i], "%g", &v); err == nil {
			out = append(out, v)
		}
	}
	return out
}

// SparkSummary renders one sparkline per numeric column (columns after the
// first, which is assumed to be the axis), as "column: sparkline" lines.
func (t *Table) SparkSummary() string {
	var b strings.Builder
	for i := 1; i < len(t.Columns); i++ {
		vals := t.columnFloats(i)
		if len(vals) < 2 {
			continue
		}
		fmt.Fprintf(&b, "%-14s %s\n", t.Columns[i], spark(vals))
	}
	return b.String()
}

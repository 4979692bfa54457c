package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTextRendering(t *testing.T) {
	tab := New("Demo", "size", "value")
	tab.add("1KiB", "1.5")
	tab.add("128MiB", "12")
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Demo", "size", "value", "1KiB", "128MiB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Columns must be aligned: every row has the header's column offset.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	col := strings.Index(lines[1], "value")
	if col < 0 {
		t.Fatalf("header missing value column: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3][col:], "1.5") {
		t.Fatalf("misaligned row: %q (want value at col %d)", lines[3], col)
	}
}

func TestCSVRendering(t *testing.T) {
	tab := New("Demo", "a", "b")
	tab.add("x", "1")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# Demo\n") || !strings.Contains(out, "a,b\n") || !strings.Contains(out, "x,1\n") {
		t.Fatalf("bad CSV:\n%s", out)
	}
}

func TestAddWrongArityPanics(t *testing.T) {
	tab := New("", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity did not panic")
		}
	}()
	tab.add("only-one")
}

func TestAddF(t *testing.T) {
	tab := New("", "s", "f", "i", "i64", "other")
	tab.AddF("str", 3.14159, 7, int64(9), []int{1})
	row := tab.Rows[0]
	if row[0] != "str" || row[1] != "3.142" || row[2] != "7" || row[3] != "9" || row[4] != "[1]" {
		t.Fatalf("AddF formatted %v", row)
	}
}

func TestWriteAllText(t *testing.T) {
	a := New("A", "x")
	a.add("1")
	b := New("B", "y")
	b.add("2")
	var buf bytes.Buffer
	if err := WriteAllText(&buf, []*Table{a, b}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# A") || !strings.Contains(buf.String(), "# B") {
		t.Fatal("missing tables")
	}
}

func TestMarkdownRendering(t *testing.T) {
	tab := New("MD", "a", "b")
	tab.add("1", "2")
	var buf bytes.Buffer
	if err := tab.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### MD", "| a | b |", "|---|---|", "| 1 | 2 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestSpark(t *testing.T) {
	if got := spark(nil); got != "" {
		t.Fatalf("spark(nil) = %q", got)
	}
	if got := spark([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Fatalf("constant series = %q", got)
	}
	got := spark([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("ramp = %q", got)
	}
	if up := spark([]float64{1, 100}); up != "▁█" {
		t.Fatalf("two-point = %q", up)
	}
}

func TestColumnFloatsSkipsNonNumeric(t *testing.T) {
	tab := New("", "size", "v")
	tab.add("1KiB", "1.5")
	tab.add("2KiB", "-")
	tab.add("4KiB", "3")
	got := tab.columnFloats(1)
	if len(got) != 2 || got[0] != 1.5 || got[1] != 3 {
		t.Fatalf("ColumnFloats = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column did not panic")
		}
	}()
	tab.columnFloats(5)
}

func TestSparkSummary(t *testing.T) {
	tab := New("", "size", "a", "b")
	tab.add("1", "1", "9")
	tab.add("2", "2", "8")
	tab.add("3", "3", "7")
	out := tab.SparkSummary()
	if !strings.Contains(out, "a") || !strings.Contains(out, "▁") {
		t.Fatalf("SparkSummary = %q", out)
	}
}

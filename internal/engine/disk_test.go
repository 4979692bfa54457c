package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"partmb/internal/sim"
)

type diskCell struct {
	Size     int64
	Elapsed  sim.Duration
	Overhead float64
}

func TestDiskCachePersistsAcrossRunners(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := diskCell{Size: 1 << 20, Elapsed: sim.Duration(1234567), Overhead: 1.0625}
	const key = "deadbeef"

	rn1 := New(WithDiskCache(d))
	var computed int
	v, err := doAs(rn1, key, nil, func(*sim.Arena) (diskCell, error) { computed++; return want, nil })
	if err != nil || v != want {
		t.Fatalf("cold DoAs = %+v, %v", v, err)
	}
	if st := rn1.Stats(); st.DiskWrites != 1 || st.DiskHits != 0 || st.Runs != 1 {
		t.Fatalf("cold stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(d.dir, key+".json")); err != nil {
		t.Fatalf("persisted cell missing: %v", err)
	}

	// A fresh Runner (fresh process, in effect) must answer from disk.
	rn2 := New(WithDiskCache(d))
	v, err = doAs(rn2, key, nil, func(*sim.Arena) (diskCell, error) {
		t.Error("recomputed a persisted cell")
		return diskCell{}, nil
	})
	if err != nil || v != want {
		t.Fatalf("warm DoAs = %+v, %v", v, err)
	}
	if st := rn2.Stats(); st.DiskHits != 1 || st.Runs != 0 || st.DiskWrites != 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if computed != 1 {
		t.Fatalf("computed %d times, want 1", computed)
	}
}

func TestDiskCacheCorruptEntryRecovered(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "cafef00d"
	// Every file holds Size 1; the cell computes Size 7. Only a well-formed
	// envelope for key (mayHit) may be served, and then with the value it
	// holds; every other file must be deleted and recomputed.
	const head = `{"schema":1,"key":"cafef00d","value":`
	const value = `{"Size":1,"Elapsed":"42ns","Overhead":0}`
	corrupt := []struct {
		name   string
		data   []byte
		mayHit bool
	}{
		{"truncated", []byte(`{"schema":1,"key":"cafef00d","val`), false},
		{"wrong schema", mustEnvelope(t, SchemaVersion+1, key, diskCell{Size: 1}), false},
		{"key mismatch", mustEnvelope(t, SchemaVersion, "cafef00e", diskCell{Size: 1}), false},
		{"undecodable value", []byte(head + `"not a cell"}` + "\n"), false},
		{"bytes after the value", []byte(head + value + ` 1}` + "\n"), false},
		{"bytes after the envelope", []byte(head + value + "}\n{}\n"), false},
		{"value cut before its last byte", []byte(head + value[:len(value)-1] + "}\n"), false},
		{"value cut, no envelope end", []byte(head + value[:len(value)-1]), false},
		{"envelope not closed", []byte(head + value + " \n"), false},
		{"empty", nil, false},
		{"extra envelope field", []byte(head + value + `,"extra":2}` + "\n"), true},
		{"extra field before the key", []byte(`{"schema":1,"extra":2,"key":"cafef00d","value":` + value + "}\n"), true},
		{"no trailing newline", []byte(head + value + "}"), true},
	}
	held := diskCell{Size: 1, Elapsed: 42}
	for _, tc := range corrupt {
		path := filepath.Join(d.dir, key+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		rn := New(WithDiskCache(d))
		want := diskCell{Size: 7, Elapsed: 42}
		v, err := doAs(rn, key, nil, func(*sim.Arena) (diskCell, error) { return want, nil })
		st := rn.Stats()
		if err != nil || v != want && !(tc.mayHit && v == held && st.DiskHits == 1) {
			t.Fatalf("%s: DoAs = %+v, %v (stats %+v)", tc.name, v, err, st)
		}
		if v == held {
			os.Remove(path)
			continue
		}
		if st.DiskHits != 0 || st.Runs != 1 || st.DiskWrites != 1 {
			t.Fatalf("%s: stats = %+v, want recompute + rewrite", tc.name, st)
		}
		// The entry must have been rewritten valid.
		rn = New(WithDiskCache(d))
		if v, err := doAs(rn, key, nil, func(*sim.Arena) (diskCell, error) {
			t.Errorf("%s: rewritten cell not reused", tc.name)
			return diskCell{}, nil
		}); err != nil || v != want {
			t.Fatalf("%s: reread = %+v, %v", tc.name, v, err)
		}
		os.Remove(path)
	}
}

// sampleCell is shaped like core.Result: scalars plus a slice of structs that
// carry sim.Durations, which is what most persisted cells look like.
type sampleCell struct {
	Size     int64
	Samples  []sampleRow
	Overhead float64
}

type sampleRow struct {
	TPt2Pt, TPart, TPartLast sim.Duration
}

func newSampleCell(rows int) sampleCell {
	c := sampleCell{Size: 65536, Overhead: 0.75}
	for i := 0; i < rows; i++ {
		c.Samples = append(c.Samples, sampleRow{12 * sim.Microsecond, 9500 + sim.Duration(i), 2 * sim.Millisecond})
	}
	return c
}

// cellFileBytes is a cell file exactly as every release since schema 1
// writes it. Cache directories outlive binaries, so store must keep writing
// these bytes and load must keep serving them.
const cellFileBytes = `{"schema":1,"key":"0123abcd","value":{"Size":65536,"Samples":[` +
	`{"TPt2Pt":"12us","TPart":"9500ns","TPartLast":"2ms"},` +
	`{"TPt2Pt":"12us","TPart":"9501ns","TPartLast":"2ms"}],"Overhead":0.75}}` + "\n"

func TestDiskCacheFileBytesPinned(t *testing.T) {
	const key = "0123abcd"
	want := newSampleCell(2)
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := doAs(New(WithDiskCache(d)), key, nil, func(*sim.Arena) (sampleCell, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(d.dir, key+".json")); err != nil || string(got) != cellFileBytes {
		t.Fatalf("store wrote %q (%v), want %q", got, err, cellFileBytes)
	}

	d, err = OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.dir, key+".json"), []byte(cellFileBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	rn := New(WithDiskCache(d))
	v, err := doAs(rn, key, nil, func(*sim.Arena) (sampleCell, error) {
		t.Error("recomputed a cell file written in the schema 1 layout")
		return sampleCell{}, nil
	})
	if err != nil || !reflect.DeepEqual(v, want) {
		t.Fatalf("read back %+v, %v; want %+v", v, err, want)
	}
	if st := rn.Stats(); st.DiskHits != 1 || st.DiskReadBytes != int64(len(cellFileBytes)) {
		t.Fatalf("stats = %+v, want one hit of %d bytes", st, len(cellFileBytes))
	}
}

// TestDiskHitAllocs pins what serving a persisted cell allocates: doAs on a
// single-flight runner, so every call reads the file. The cell has eight
// rows of three sim.Durations. It was 55 while load parsed the envelope and
// then its value again, and every Duration went through a string and
// strconv.ParseFloat.
func TestDiskHitAllocs(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "0123abcd"
	want := newSampleCell(8)
	rn := New(WithDiskCache(d), WithSingleFlight())
	if _, err := doAs(rn, key, nil, func(*sim.Arena) (sampleCell, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if v, err := doAs(rn, key, nil, func(*sim.Arena) (sampleCell, error) {
			t.Error("recomputed a persisted cell")
			return want, nil
		}); err != nil || len(v.Samples) != 8 {
			t.Fatalf("DoAs = %+v, %v", v, err)
		}
	})
	if allocs != 22 {
		t.Errorf("a disk hit made %v allocations, want 22", allocs)
	}
}

func mustEnvelope(t *testing.T, schema int, key string, val any) []byte {
	t.Helper()
	raw, err := json.Marshal(val)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cellEnvelope{Schema: schema, Key: key, Value: raw})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestDiskCacheErrorsNeverPersisted(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "badc0de"
	rn := New(WithDiskCache(d))
	boom := errors.New("boom")
	if _, err := doAs(rn, key, nil, func(*sim.Arena) (diskCell, error) { return diskCell{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(d.dir, key+".json")); !os.IsNotExist(err) {
		t.Fatalf("failed cell was persisted (stat err %v)", err)
	}
	// A fresh runner recomputes; the permanent error was only memoized in
	// the failing runner's memory.
	rn2 := New(WithDiskCache(d))
	var computed int
	if _, err := doAs(rn2, key, nil, func(*sim.Arena) (diskCell, error) { computed++; return diskCell{}, boom }); !errors.Is(err, boom) || computed != 1 {
		t.Fatalf("fresh runner: err = %v, computed = %d", err, computed)
	}
}

// A store whose rename fails, here because a directory sits where the cell
// file goes, must remove its temp file: scan skips names that do not end in
// .json, so a leaked one would stay forever, outside the byte budget.
func TestDiskCacheFailedStoreLeavesNoTempFile(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeef"
	if err := os.Mkdir(d.path(key), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.store(key, diskCell{Size: 1}); err == nil {
		t.Fatal("store over a directory succeeded")
	}
	des, err := os.ReadDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if strings.Contains(de.Name(), ".tmp-") {
			t.Fatalf("leaked temp file %s", de.Name())
		}
	}
}

func TestDoAsMemoizesWithoutDisk(t *testing.T) {
	rn := New()
	var computed int
	for i := 0; i < 2; i++ {
		v, err := doAs(rn, "k", nil, func(*sim.Arena) (diskCell, error) {
			computed++
			return diskCell{Size: 9}, nil
		})
		if err != nil || v.Size != 9 {
			t.Fatalf("DoAs = %+v, %v", v, err)
		}
	}
	if computed != 1 {
		t.Fatalf("computed %d times, want 1", computed)
	}
}

// TestPlainDoSkipsDisk: Do cannot decode a persisted cell (no concrete
// type), so it must neither read nor write the disk cache.
func TestPlainDoSkipsDisk(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rn := New(WithDiskCache(d))
	if _, err := rn.Do("k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if st := rn.Stats(); st.DiskWrites != 0 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want no disk traffic", st)
	}
	if _, err := os.Stat(filepath.Join(d.dir, "k.json")); !os.IsNotExist(err) {
		t.Fatalf("plain Do persisted a cell (stat err %v)", err)
	}
}

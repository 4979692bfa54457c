package engine

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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
	v, err := doAs(rn1, key, nil, func() (diskCell, error) { computed++; return want, nil })
	if err != nil || v != want {
		t.Fatalf("cold DoAs = %+v, %v", v, err)
	}
	if st := rn1.Stats(); st.DiskWrites != 1 || st.DiskHits != 0 || st.Runs != 1 {
		t.Fatalf("cold stats = %+v", st)
	}
	if _, err := os.Stat(filepath.Join(d.Dir(), key+".json")); err != nil {
		t.Fatalf("persisted cell missing: %v", err)
	}

	// A fresh Runner (fresh process, in effect) must answer from disk.
	rn2 := New(WithDiskCache(d))
	v, err = doAs(rn2, key, nil, func() (diskCell, error) {
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
	corrupt := []struct {
		name string
		data []byte
	}{
		{"truncated", []byte(`{"schema":1,"key":"cafef00d","val`)},
		{"wrong schema", mustEnvelope(t, 999, key, diskCell{Size: 1})},
		{"key mismatch", mustEnvelope(t, SchemaVersion, "other", diskCell{Size: 1})},
		{"undecodable value", []byte(`{"schema":1,"key":"cafef00d","value":"not a cell"}`)},
	}
	for _, tc := range corrupt {
		path := filepath.Join(d.Dir(), key+".json")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		rn := New(WithDiskCache(d))
		want := diskCell{Size: 7, Elapsed: 42}
		v, err := doAs(rn, key, nil, func() (diskCell, error) { return want, nil })
		if err != nil || v != want {
			t.Fatalf("%s: DoAs = %+v, %v", tc.name, v, err)
		}
		if st := rn.Stats(); st.DiskHits != 0 || st.Runs != 1 || st.DiskWrites != 1 {
			t.Fatalf("%s: stats = %+v, want recompute + rewrite", tc.name, st)
		}
		// The entry must have been rewritten valid.
		rn = New(WithDiskCache(d))
		if v, err := doAs(rn, key, nil, func() (diskCell, error) {
			t.Errorf("%s: rewritten cell not reused", tc.name)
			return diskCell{}, nil
		}); err != nil || v != want {
			t.Fatalf("%s: reread = %+v, %v", tc.name, v, err)
		}
		os.Remove(path)
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
	return data
}

func TestDiskCacheErrorsNeverPersisted(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "badc0de"
	rn := New(WithDiskCache(d))
	boom := errors.New("boom")
	if _, err := doAs(rn, key, nil, func() (diskCell, error) { return diskCell{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(filepath.Join(d.Dir(), key+".json")); !os.IsNotExist(err) {
		t.Fatalf("failed cell was persisted (stat err %v)", err)
	}
	// A fresh runner recomputes; the permanent error was only memoized in
	// the failing runner's memory.
	rn2 := New(WithDiskCache(d))
	var computed int
	if _, err := doAs(rn2, key, nil, func() (diskCell, error) { computed++; return diskCell{}, boom }); !errors.Is(err, boom) || computed != 1 {
		t.Fatalf("fresh runner: err = %v, computed = %d", err, computed)
	}
}

func TestDoAsMemoizesWithoutDisk(t *testing.T) {
	rn := New()
	var computed int
	for i := 0; i < 2; i++ {
		v, err := doAs(rn, "k", nil, func() (diskCell, error) {
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
	if _, err := os.Stat(filepath.Join(d.Dir(), "k.json")); !os.IsNotExist(err) {
		t.Fatalf("plain Do persisted a cell (stat err %v)", err)
	}
}

package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Cross-process eviction tests: two DiskCache instances sharing one
// directory model two cooperating processes (sweepd + a CLI run, or two
// CI jobs). Budget accounting is per process — each enforces its own
// view — so one process's eviction shows up to the other only as files
// going missing, which every code path must treat as a plain miss, never
// as corruption or negative accounting.

// TestDiskCacheCrossProcessEviction: process B evicts entries process A
// still accounts for. A's loads must degrade to misses, and a re-store
// must bring the key back to a working hit.
func TestDiskCacheCrossProcessEviction(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	one := put(t, a, "x")
	put(t, a, "y")
	put(t, a, "z")

	b, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if acc := b.Accounting(); acc.Entries != 3 {
		t.Fatalf("b scanned %d entries, want 3", acc.Entries)
	}
	b.SetBudget(one) // b evicts the two oldest entries from the shared dir

	acc := b.Accounting()
	if acc.Entries != 1 || acc.Evictions != 2 || acc.Bytes > acc.Budget {
		t.Fatalf("b accounting after eviction = %+v", acc)
	}
	// a's view is now stale: the files for x and y are gone. Loads must be
	// plain misses — not errors, not panics.
	hits := 0
	for _, key := range []string{"x", "y", "z"} {
		if _, _, ok := a.load(key, decodeAs[diskCell]); ok {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("a hit %d of 3 keys after b evicted 2, want 1", hits)
	}
	// Recomputing an evicted cell through a restores it for both.
	put(t, a, "x")
	if _, _, ok := b.load("x", decodeAs[diskCell]); !ok {
		t.Fatal("b missed a cell a re-stored")
	}
	for _, acc := range []Accounting{a.Accounting(), b.Accounting()} {
		if acc.Bytes < 0 || acc.Entries < 0 {
			t.Fatalf("negative accounting: %+v", acc)
		}
	}
}

// TestDiskCacheScanRacesEviction: OpenDiskCache's scan stats every
// directory entry after listing it; a cooperating process can evict a
// file in that window, making DirEntry.Info fail with ENOENT. The scan
// must skip such entries (the `continue` branch) instead of failing the
// open. Run under -race this also checks the index build against
// concurrent removals.
func TestDiskCacheScanRacesEviction(t *testing.T) {
	dir := t.TempDir()
	seed, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		put(t, seed, fmt.Sprintf("cell-%03d", i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// The "other process": evict (remove) and re-store cells as fast as
		// possible while scans are in flight.
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("cell-%03d", i%n)
			os.Remove(filepath.Join(seed.dir, key+".json"))
			// Errors are fine here: the cell is just absent for one scan.
			seed.store(key, diskCell{Size: 1 << 20, Overhead: 1.5})
		}
	}()
	for i := 0; i < 50; i++ {
		d, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatalf("scan %d failed against concurrent eviction: %v", i, err)
		}
		acc := d.Accounting()
		if acc.Entries < 0 || acc.Bytes < 0 || acc.Entries > n {
			t.Fatalf("scan %d accounting = %+v", i, acc)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDiskCacheConcurrentBudgetedCaches: two budgeted caches hammer the
// same directory with stores, loads, and the evictions those trigger.
// Under -race this pins down that per-process accounting never goes
// negative and every surviving file still decodes — eviction may race
// with eviction, but never corrupts.
func TestDiskCacheConcurrentBudgetedCaches(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	one := put(t, a, "seed")
	a.SetBudget(4 * one)
	b.SetBudget(4 * one)

	var wg sync.WaitGroup
	for w, d := range map[string]*DiskCache{"a": a, "b": b} {
		wg.Add(1)
		go func(w string, d *DiskCache) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("cell-%02d", i%10)
				// store ignores errors by contract: a cross-process rename
				// race just means the cell is not reusable this round.
				d.store(key, diskCell{Size: int64(i), Overhead: 1})
				d.load(key, decodeAs[diskCell])
			}
		}(w, d)
	}
	wg.Wait()

	for name, acc := range map[string]Accounting{"a": a.Accounting(), "b": b.Accounting()} {
		if acc.Bytes < 0 || acc.Entries < 0 {
			t.Fatalf("%s accounting went negative: %+v", name, acc)
		}
	}
	// Every file either process left behind must still decode cleanly.
	fresh, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(fresh.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if filepath.Ext(de.Name()) != ".json" {
			continue
		}
		key := de.Name()[:len(de.Name())-len(".json")]
		if _, _, ok := fresh.load(key, decodeAs[diskCell]); !ok {
			t.Fatalf("surviving entry %s does not decode", key)
		}
	}
}

package engine

import (
	"os"
	"path/filepath"
	"testing"
)

// put stores a fixed-size-ish payload under key and fails the test on
// error. Returns the stored envelope size.
func put(t *testing.T, d *DiskCache, key string) int64 {
	t.Helper()
	n, err := d.store(key, diskCell{Size: 1 << 20, Overhead: 1.5})
	if err != nil {
		t.Fatalf("store(%s): %v", key, err)
	}
	return n
}

func TestDiskCacheLRUEviction(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	one := put(t, d, "a")
	put(t, d, "b")
	put(t, d, "c")

	// Touch "a" so "b" becomes the least recently used entry.
	if _, _, ok := d.load("a", decodeAs[diskCell]); !ok {
		t.Fatal("load(a) missed")
	}
	d.SetBudget(2 * one)

	if _, _, ok := d.load("b", decodeAs[diskCell]); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	for _, key := range []string{"a", "c"} {
		if _, err := os.Stat(filepath.Join(d.dir, key+".json")); err != nil {
			t.Fatalf("recent entry %s evicted: %v", key, err)
		}
	}
	acc := d.Accounting()
	if acc.Entries != 2 || acc.Evictions != 1 || acc.EvictedBytes != one || acc.Bytes > acc.Budget {
		t.Fatalf("accounting = %+v", acc)
	}
}

// TestDiskCachePinBlocksEviction: a pinned key (a cell currently being
// served) survives eviction even when it is the LRU victim and the cache
// is over budget; the final unpin makes it reclaimable again.
func TestDiskCachePinBlocksEviction(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	one := put(t, d, "pinned")
	d.pin("pinned")
	d.pin("pinned") // pins nest

	put(t, d, "x")
	d.SetBudget(one) // only room for one entry; LRU victim is "pinned"

	if _, err := os.Stat(filepath.Join(d.dir, "pinned.json")); err != nil {
		t.Fatalf("pinned entry evicted: %v", err)
	}
	if _, _, ok := d.load("x", decodeAs[diskCell]); ok {
		t.Fatal("unpinned entry x survived while the cache was over budget")
	}

	d.unpin("pinned")
	if _, err := os.Stat(filepath.Join(d.dir, "pinned.json")); err != nil {
		t.Fatal("entry evicted while still pinned once")
	}
	// Second unpin releases the key; the store below must evict it.
	d.unpin("pinned")
	put(t, d, "y")
	if _, _, ok := d.load("pinned", decodeAs[diskCell]); ok {
		t.Fatal("fully unpinned LRU entry survived eviction")
	}
}

// TestDiskCacheScanReopen: reopening a cache directory rebuilds the size
// index, so a budget set after restart accounts for cells persisted by
// the previous process.
func TestDiskCacheScanReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	one := put(t, d, "a")
	put(t, d, "b")

	d2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	acc := d2.Accounting()
	if acc.Entries != 2 || acc.Bytes != 2*one {
		t.Fatalf("reopened accounting = %+v, want 2 entries / %d bytes", acc, 2*one)
	}
	d2.SetBudget(one)
	if acc := d2.Accounting(); acc.Entries != 1 || acc.Bytes > one {
		t.Fatalf("post-budget accounting = %+v", acc)
	}
}

func TestOpenDiskCacheFailsFast(t *testing.T) {
	// Parent is a regular file: MkdirAll must fail at open, not at the
	// first per-cell store.
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskCache(filepath.Join(file, "cache")); err == nil {
		t.Fatal("OpenDiskCache under a regular file succeeded")
	}

	// Pre-existing read-only directory: MkdirAll succeeds, so only the
	// writability probe catches it. Meaningless as root (root writes
	// anywhere).
	if os.Geteuid() == 0 {
		t.Skip("running as root: read-only directories are still writable")
	}
	ro := filepath.Join(dir, "ro", "v1")
	if err := os.MkdirAll(ro, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(ro, 0o755) })
	if _, err := OpenDiskCache(filepath.Join(dir, "ro")); err == nil {
		t.Fatal("OpenDiskCache on a read-only directory succeeded")
	}
}

package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"partmb/internal/sim"
)

// SchemaVersion versions the on-disk cell format. Entries written under a
// different schema live in a sibling directory and are simply not seen, so
// changing the cell layout only requires bumping this constant — stale
// trees can be garbage-collected by deleting the cache directory.
const SchemaVersion = 1

// DiskCache persists successful cell results as JSON files keyed by the
// engine's content-addressed cell hash, so repeated CLI invocations and CI
// runs reuse results across processes. The simulator is deterministic and
// cells are keyed by their full configuration, which makes a persisted
// cell exactly as trustworthy as a fresh run — the reproducibility-as-
// artifact discipline applied at cell granularity.
//
// Only successful results are persisted (errors of any class never are),
// writes are atomic (temp file + rename), and corrupt or mismatched
// entries are deleted and recomputed rather than surfaced as failures. A
// DiskCache is safe for concurrent use by one runner and for concurrent
// use by cooperating processes sharing the directory.
//
// A cache can run under a byte budget (SetBudget): every load and store
// maintains a per-key size/recency index, and stores that push the total
// past the budget evict least-recently-used entries until it fits. Keys
// pinned with pin (the runner pins a cell for the whole time it is being
// resolved) are never evicted, so a cell currently being served cannot be
// deleted out from under its readers. Budget accounting is per process:
// cooperating processes sharing a directory each enforce their own view,
// which can transiently overshoot but never deletes a pinned entry.
type DiskCache struct {
	dir string

	mu       sync.Mutex
	budget   int64
	clock    int64
	bytes    int64
	entries  map[string]*diskEntry
	pins     map[string]int
	evicted  int64
	evictedB int64
}

// diskEntry is the in-memory accounting record of one persisted cell.
type diskEntry struct {
	size int64
	seq  int64 // LRU clock value of the last touch
}

// OpenDiskCache opens (creating if needed) the cache rooted at dir;
// entries live under a schema-versioned subdirectory. The directory must
// be writable: an unwritable cache is reported here, at open time, instead
// of surfacing later as a confusing per-cell persist failure. Existing
// entries are scanned into the size/recency index so byte budgets account
// for cells persisted by earlier processes.
func OpenDiskCache(dir string) (*DiskCache, error) {
	vdir := filepath.Join(dir, fmt.Sprintf("v%d", SchemaVersion))
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: opening disk cache: %w", err)
	}
	// MkdirAll succeeds on a pre-existing directory whatever its mode, so
	// probe writability explicitly: failing fast here beats a confusing
	// per-cell failure on the first store.
	probe, err := os.CreateTemp(vdir, ".probe-*")
	if err != nil {
		return nil, fmt.Errorf("engine: disk cache directory %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())

	d := &DiskCache{dir: vdir, entries: map[string]*diskEntry{}, pins: map[string]int{}}
	if err := d.scan(); err != nil {
		return nil, fmt.Errorf("engine: scanning disk cache: %w", err)
	}
	return d, nil
}

// scan builds the size/recency index from the files already in the cache
// directory, ordering initial recency by modification time (the best
// cross-process approximation available).
func (d *DiskCache) scan() error {
	des, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	type stat struct {
		key   string
		size  int64
		mtime int64
	}
	var stats []stat
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with another process's eviction
		}
		stats = append(stats, stat{key: name[:len(name)-len(".json")], size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].mtime < stats[j].mtime })
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, st := range stats {
		d.clock++
		d.entries[st.key] = &diskEntry{size: st.size, seq: d.clock}
		d.bytes += st.size
	}
	return nil
}

// SetBudget bounds the cache's total entry bytes; 0 (the default) means
// unlimited. Shrinking the budget below the current size evicts
// immediately, oldest unpinned entries first.
func (d *DiskCache) SetBudget(maxBytes int64) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	d.mu.Lock()
	d.budget = maxBytes
	d.evictLocked()
	d.mu.Unlock()
}

// pin marks key as in use: eviction skips pinned keys, so a cell that is
// currently being served (loaded, computed, or stored) can never be
// deleted mid-flight. Pins nest; each pin needs a matching unpin. Safe on
// a nil cache.
func (d *DiskCache) pin(key string) {
	if d == nil || key == "" {
		return
	}
	d.mu.Lock()
	d.pins[key]++
	d.mu.Unlock()
}

// unpin releases one pin of key; the final unpin makes it evictable again
// (and evicts immediately if the cache is over budget). Safe on a nil
// cache.
func (d *DiskCache) unpin(key string) {
	if d == nil || key == "" {
		return
	}
	d.mu.Lock()
	if d.pins[key] > 1 {
		d.pins[key]--
	} else {
		delete(d.pins, key)
		d.evictLocked()
	}
	d.mu.Unlock()
}

// Accounting is a snapshot of the cache's size and eviction counters.
type Accounting struct {
	// Entries and Bytes are the persisted cells this process accounts for.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Budget is the configured byte bound (0 = unlimited).
	Budget int64 `json:"budget_bytes,omitempty"`
	// Evictions / EvictedBytes count entries removed to honour the budget.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
}

// Accounting returns the cache's current size and eviction counters. Safe
// on a nil cache (zero snapshot).
func (d *DiskCache) Accounting() Accounting {
	if d == nil {
		return Accounting{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return Accounting{
		Entries:      len(d.entries),
		Bytes:        d.bytes,
		Budget:       d.budget,
		Evictions:    d.evicted,
		EvictedBytes: d.evictedB,
	}
}

// evictLocked removes least-recently-used unpinned entries until the cache
// fits its budget. Callers hold d.mu. An all-pinned cache may stay over
// budget — pinned cells are being served and must not disappear.
func (d *DiskCache) evictLocked() {
	if d.budget <= 0 {
		return
	}
	for d.bytes > d.budget {
		victim := ""
		var oldest int64
		for key, e := range d.entries {
			if d.pins[key] > 0 {
				continue
			}
			if victim == "" || e.seq < oldest {
				victim, oldest = key, e.seq
			}
		}
		if victim == "" {
			return
		}
		e := d.entries[victim]
		os.Remove(d.path(victim))
		delete(d.entries, victim)
		d.bytes -= e.size
		d.evicted++
		d.evictedB += e.size
	}
}

// touchLocked records a use of key with the given on-disk size, creating
// the accounting entry when another process wrote the file. Callers hold
// d.mu.
func (d *DiskCache) touchLocked(key string, size int64) {
	d.clock++
	if e, ok := d.entries[key]; ok {
		d.bytes += size - e.size
		e.size, e.seq = size, d.clock
	} else {
		d.entries[key] = &diskEntry{size: size, seq: d.clock}
		d.bytes += size
	}
}

// cellEnvelope is the on-disk form of one cell. store marshals it; load
// reads it back through cellValue, which relies on its field order.
type cellEnvelope struct {
	Schema int             `json:"schema"`
	Key    string          `json:"key"`
	Value  json.RawMessage `json:"value"`
}

func (d *DiskCache) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// cellHead is how every file store writes begins, up to the key.
var cellHead = `{"schema":` + strconv.Itoa(SchemaVersion) + `,"key":"`

// cellValue returns the value bytes of a cell file for key, or false when
// data is not laid out exactly as store writes it: cellHead, the key, the
// value, then "}\n". Keys are hex digests, which JSON never escapes, so the
// key appears verbatim. Checking the fixed bytes in place leaves the value as
// the only JSON to parse: whatever lies between them must decode as one
// value, so a file that passes is a well-formed envelope for key.
func cellValue(data []byte, key string) ([]byte, bool) {
	const mid, tail = `","value":`, "}\n"
	n := len(cellHead) + len(key) + len(mid)
	if len(data) < n+len(tail) ||
		string(data[:len(cellHead)]) != cellHead ||
		string(data[len(cellHead):n-len(mid)]) != key ||
		string(data[n-len(mid):n]) != mid ||
		string(data[len(data)-len(tail):]) != tail {
		return nil, false
	}
	return data[n : len(data)-len(tail)], true
}

// load returns the decoded cell for key plus the envelope's byte size, in
// one read and one decode of the value. Unreadable files are a plain miss;
// corrupt, truncated, or mismatched entries (a header that is not store's,
// wrong schema, key/filename disagreement, bytes after the envelope,
// undecodable value) are deleted so the cell is recomputed and rewritten —
// recovery, not failure. Hits refresh the key's recency in the eviction
// index.
func (d *DiskCache) load(key string, decode decodeFunc) (any, int64, bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	if raw, ok := cellValue(data, key); ok {
		if v, err := decode(raw); err == nil {
			d.mu.Lock()
			d.touchLocked(key, int64(len(data)))
			d.mu.Unlock()
			return v, int64(len(data)), true
		}
	}
	os.Remove(path)
	d.mu.Lock()
	if e, ok := d.entries[key]; ok {
		d.bytes -= e.size
		delete(d.entries, key)
	}
	d.mu.Unlock()
	return nil, 0, false
}

// store persists one successful cell atomically and returns the envelope's
// byte size, evicting older entries if the write pushed the cache past its
// budget. Errors are reported for accounting but are safe to ignore: the
// in-memory result stands, the cell just is not reusable across processes.
func (d *DiskCache) store(key string, val any) (int64, error) {
	raw, err := json.Marshal(val)
	if err != nil {
		return 0, err
	}
	data, err := json.Marshal(cellEnvelope{Schema: SchemaVersion, Key: key, Value: raw})
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(d.dir, key+".tmp-*")
	if err != nil {
		return 0, err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	d.mu.Lock()
	d.touchLocked(key, int64(len(data)))
	d.evictLocked()
	d.mu.Unlock()
	return int64(len(data)), nil
}

// doAs is Do with a typed result, the form the persistent cache and the
// remote executor need (rc, when non-nil, lets the cell ship): decoding a
// persisted or shipped cell requires its concrete type T, which Do's
// any-typed interface cannot name. Lookup order is memory, then disk, then
// computing fn — with the same singleflight, error-classification and
// retry behaviour as Do. T must round-trip through
// encoding/json losslessly for persisted cells to be bit-identical to fresh
// runs; every result type in this repository does (sim.Duration marshals
// exactly, and Go's float64 encoding is shortest-round-trip).
func doAs[T any](r *Runner, key string, rc *remoteCell, fn func(*sim.Arena) (T, error)) (T, error) {
	v, err := r.do(key, decodeAs[T], rc, func(a *sim.Arena) (any, error) { return fn(a) })
	if err != nil || v == nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

func decodeAs[T any](raw json.RawMessage) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

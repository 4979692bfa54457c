package obs

import (
	"sort"
	"sync"

	"partmb/internal/stats"
)

// Window is a fixed-capacity ring of float64 samples with percentile
// summaries — the bounded building block a long-lived service needs for
// request-latency metrics, where an unbounded Collector would grow
// forever. Once full, each Add overwrites the oldest sample, so summaries
// always describe the most recent capacity-sized window. Safe for
// concurrent use; the zero value is not usable, call NewWindow.
type Window struct {
	mu    sync.Mutex
	buf   []float64
	n     int
	next  int
	total int64
}

// NewWindow returns a ring holding the last capacity samples; capacity < 1
// is treated as 1.
func NewWindow(capacity int) *Window {
	if capacity < 1 {
		capacity = 1
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add records one sample, evicting the oldest when the window is full.
func (w *Window) Add(v float64) {
	w.mu.Lock()
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.total++
	w.mu.Unlock()
}

// Count returns the number of samples ever added (not just those still in
// the window).
func (w *Window) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// snapshot returns a copy of the samples currently in the window, oldest
// first.
func (w *Window) snapshot() []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]float64, 0, w.n)
	if w.n == len(w.buf) {
		out = append(out, w.buf[w.next:]...)
		out = append(out, w.buf[:w.next]...)
	} else {
		out = append(out, w.buf[:w.n]...)
	}
	return out
}

// Percentiles evaluates the given percentiles (0–100) over the current
// window in one sort; an empty window yields zeros.
func (w *Window) Percentiles(ps ...float64) []float64 {
	xs := w.snapshot()
	sort.Float64s(xs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = stats.Percentile(xs, p)
	}
	return out
}

// Package trace records virtual-time timelines and renders them in the
// Chrome trace-event JSON format (load via chrome://tracing or Perfetto).
// The benchmark harness uses it to visualize per-thread compute spans and
// per-partition transfers — the picture in the paper's Figure 3, but
// reconstructed from an actual run.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"partmb/internal/sim"
)

// Event is one trace entry. Only complete ("X") and instant ("i") events
// are emitted.
type Event struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	// Chrome traces use microseconds.
	TsUs  float64           `json:"ts"`
	DurUs float64           `json:"dur,omitempty"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// Recorder accumulates events. The zero value is ready to use; a nil
// *Recorder is a valid no-op sink, so callers can thread it through
// unconditionally.
type Recorder struct {
	events []Event
}

// Span records a complete event covering [start, end] on (pid, tid).
func (r *Recorder) Span(pid, tid int, cat, name string, start, end sim.Time, args map[string]string) {
	if r == nil {
		return
	}
	if end < start {
		panic(fmt.Sprintf("trace: span %q ends (%v) before it starts (%v)", name, end, start))
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Phase: "X",
		TsUs: sim.Duration(start).Microseconds(), DurUs: end.Sub(start).Microseconds(),
		Pid: pid, Tid: tid, Args: args,
	})
}

// Instant records a point event.
func (r *Recorder) Instant(pid, tid int, cat, name string, at sim.Time, args map[string]string) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Name: name, Cat: cat, Phase: "i",
		TsUs: sim.Duration(at).Microseconds(),
		Pid:  pid, Tid: tid, Args: args,
	})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// sortedEvents returns a copy of the recorded events sorted by timestamp.
func (r *Recorder) sortedEvents() []Event {
	if r == nil {
		return nil
	}
	out := append([]Event(nil), r.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].TsUs < out[j].TsUs })
	return out
}

// WriteChromeTrace renders the events as a Chrome trace-event JSON array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.sortedEvents())
}

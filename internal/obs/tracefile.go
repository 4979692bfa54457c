package obs

import (
	"fmt"
	"io"
	"sort"

	"partmb/internal/sim"
	"partmb/internal/trace"
)

// WriteChromeTrace renders the engine's host-time schedule as a Chrome
// trace-event JSON array (open in Perfetto or chrome://tracing), reusing
// internal/trace's event encoder. Worker lanes map to tids, so the trace
// shows exactly how the sweep packed onto the worker pool; task host-time
// offsets map onto the trace's microsecond axis. A task holds its lane for
// its whole run, so spans within one lane never overlap.
func WriteChromeTrace(w io.Writer, c *Collector) error {
	rec := new(trace.Recorder)
	for _, t := range c.taskList() {
		name := t.Experiment
		if name == "" {
			name = "task"
		}
		args := map[string]string{"outcome": t.Outcome, "index": fmt.Sprint(t.Index)}
		rec.Span(0, t.Worker, "engine", fmt.Sprintf("%s[%d]", name, t.Index),
			sim.Time(t.StartNS), sim.Time(t.EndNS), args)
	}
	// Remotely executed cells get their own process row (pid 1) with one
	// lane per worker name, so a distributed sweep shows the fleet next to
	// the local lanes. A cell's span starts when the engine began resolving
	// it and extends by the worker's own measured execution time — transport
	// and queueing show up as the gap to the enclosing task span.
	cells := c.cellList()
	lanes := map[string]int{}
	for _, cl := range cells {
		if cl.Remote != "" {
			lanes[cl.Remote] = 0
		}
	}
	if len(lanes) > 0 {
		names := make([]string, 0, len(lanes))
		for n := range lanes {
			names = append(names, n)
		}
		sort.Strings(names)
		for i, n := range names {
			lanes[n] = i
		}
		for _, cl := range cells {
			if cl.Remote == "" {
				continue
			}
			name := cl.Experiment
			if name == "" {
				name = "cell"
			}
			args := map[string]string{"worker": cl.Remote, "outcome": cl.Outcome, "key": cl.Key}
			rec.Span(1, lanes[cl.Remote], "remote", fmt.Sprintf("%s@%s", name, cl.Remote),
				sim.Time(cl.StartNS), sim.Time(cl.StartNS+cl.RemoteHostNS), args)
		}
	}
	return rec.WriteChromeTrace(w)
}

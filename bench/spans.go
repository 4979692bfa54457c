package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"partmb/internal/engine"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Times are offsets from the tracer's epoch.
type span struct {
	Name       string
	Start, End time.Duration
	// Parent is the index of the causing span in the tracer, -1 for a root.
	Parent int
	// ID is the pass or request the span belongs to; spans of one pass or
	// request share it.
	ID int
	// Class refines engine.cell spans by cache outcome: run, memo or disk.
	Class string
	// Remote and RemoteHost are set on cells a remote worker executed.
	Remote     string
	RemoteHost time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the workload ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, id int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// addTree appends spans whose Parent fields index into tree itself (-1 for
// the root), rebasing them onto the tracer.
func (t *tracer) addTree(tree []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.spans)
	for _, s := range tree {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// cellSink is the engine.Observer of a traced runner: it buffers cell events
// until the caller adopts them under the span that caused them. runnerEpoch
// is the host time the runner was created at, which CellEvent.Start counts
// from.
type cellSink struct {
	runnerEpoch time.Time
	mu          sync.Mutex
	cells       []engine.CellEvent
}

func (c *cellSink) CellDone(ev engine.CellEvent) {
	ev.Value = nil // the span needs timings only; do not pin results
	c.mu.Lock()
	c.cells = append(c.cells, ev)
	c.mu.Unlock()
}

func (c *cellSink) TaskDone(engine.TaskEvent) {}

func (c *cellSink) drain() []engine.CellEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.cells
	c.cells = nil
	return out
}

// cellSpan converts an engine cell event into a span on the tracer's clock.
func (t *tracer) cellSpan(c *cellSink, ev engine.CellEvent, parent, id int) span {
	start := c.runnerEpoch.Add(ev.Start).Sub(t.epoch)
	return span{
		Name: "engine.cell", Start: start, End: start + ev.Host,
		Parent: parent, ID: id, Class: string(ev.Source),
		Remote: ev.Remote, RemoteHost: ev.RemoteHost,
	}
}

// adopt files every buffered cell of the sink under parent. Callers drain a
// sink right after the call that scheduled the cells returns, so the cells
// are exactly that call's.
func (t *tracer) adopt(c *cellSink, parent, id int) {
	if t == nil || c == nil {
		return
	}
	for _, ev := range c.drain() {
		t.add(t.cellSpan(c, ev, parent, id))
	}
}

// interval is a half-open stretch of host time with a class label.
type interval struct {
	lo, hi time.Duration
	class  string
}

// unionLen returns the total time covered by at least one interval.
func unionLen(ivs []interval) time.Duration { return totalOf(attribute(ivs)) }

func totalOf(shares map[string]time.Duration) time.Duration {
	var total time.Duration
	for _, d := range shares {
		total += d
	}
	return total
}

// attribute splits the time the intervals cover among their classes: every
// instant covered by k intervals gives each of them 1/k of that instant. The
// shares therefore add up to the union of the intervals, not to the sum of
// their lengths — two engine lanes running side by side are one second of a
// pass's wall clock, not two.
func attribute(ivs []interval) map[string]time.Duration {
	type edge struct {
		at    time.Duration
		class string
		open  bool
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		edges = append(edges, edge{iv.lo, iv.class, true}, edge{iv.hi, iv.class, false})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	share := map[string]float64{}
	active := map[string]int{}
	n := 0
	var prev time.Duration
	for _, e := range edges {
		if n > 0 && e.at > prev {
			dt := float64(e.at-prev) / float64(n)
			for class, k := range active {
				share[class] += dt * float64(k)
			}
		}
		prev = e.at
		if e.open {
			active[e.class]++
			n++
		} else {
			active[e.class]--
			n--
		}
	}
	out := make(map[string]time.Duration, len(share))
	for class, ns := range share {
		out[class] = time.Duration(ns)
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent so a clock skew of a microsecond cannot
// produce negative self time.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		ivs = append(ivs, clip(parent, c))
	}
	return parent.dur() - unionLen(ivs)
}

func clip(parent, c span) interval {
	iv := interval{lo: c.Start, hi: c.End, class: c.Class}
	if iv.lo < parent.Start {
		iv.lo = parent.Start
	}
	if iv.hi > parent.End {
		iv.hi = parent.End
	}
	return iv
}

// childrenOf indexes spans by parent.
func childrenOf(spans []span) map[int][]int {
	kids := map[int][]int{}
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], i)
	}
	return kids
}

// selfByLayer accounts for one root span: it returns the self time of every
// span under the root, summed by a layer label, so that the values add up to
// the root's duration. Spans with children contribute their self time under
// their own name; engine.cell leaves contribute their share of the union of
// their siblings under "engine.cell/<class>".
func selfByLayer(spans []span, root int) map[string]time.Duration {
	kids := childrenOf(spans)
	out := map[string]time.Duration{}
	var walk func(i int)
	walk = func(i int) {
		s := spans[i]
		var children, cells []span
		for _, k := range kids[i] {
			children = append(children, spans[k])
			if spans[k].Name == "engine.cell" {
				cells = append(cells, spans[k])
			} else {
				walk(k)
			}
		}
		out[s.Name] += selfTime(s, children)
		// Cells overlap each other (two lanes) and never overlap a sibling
		// of another kind, so their union splits cleanly by class.
		ivs := make([]interval, 0, len(cells))
		for _, c := range cells {
			ivs = append(ivs, clip(s, c))
		}
		for class, d := range attribute(ivs) {
			out["engine.cell/"+class] += d
		}
	}
	walk(root)
	return out
}

// writeChromeTrace renders the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto). Each pass or request id is a process row;
// engine cells go on their own thread row so overlapping lanes stay legible.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		ev := event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: s.ID,
		}
		if s.Name == "engine.cell" {
			ev.Tid = 1
			ev.Args = map[string]string{"source": s.Class}
			if s.Remote != "" {
				ev.Args["remote"] = s.Remote
				ev.Args["remote_host"] = s.RemoteHost.String()
			}
		}
		events = append(events, ev)
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

package engine

// This file is the engine's one typed entry point for experiments: every
// experiment kind is a Cell, which keys its configuration, decides whether
// it may be cached, resolves it through the memo and disk cache, ships it to
// the installed Executor, and samples adaptive configurations as draws of
// the same kind. Defining a cell registers its kind for remote workers.

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Cell is one experiment kind: a deterministic function from a
// configuration C plus integer key parts (a message size, a window, a node
// count) to a value T. C and T must round-trip through encoding/json, C so
// the cell can travel to a worker and T so it can be persisted and shipped
// back. A Cell is immutable and safe for concurrent use.
type Cell[C, T any] struct {
	kind   string
	canon  func(C) (C, *stats.RunConfig, bool)
	run    func(*sim.Arena, C, []int64) (T, error)
	sample func(*Cell[C, T], *Runner, C, []int64) (T, error)
}

// NewCell defines the cell kind and registers it for remote execution
// (LookupKind), panicking on an empty or duplicate kind, a programming
// error: kinds are defined at init time. kind prefixes the key.
// canon applies the configuration's defaults — keys hash the canonical form
// — and reports its adaptive sampling config (nil on the fixed path) and
// whether it carries an attachment the key cannot see, such as a trace
// recorder. run computes the value of a canonical fixed configuration,
// building its simulation on arena a: one checked out for the run while a
// Sweep is active on the runner, nil otherwise (see Runner.Sweep), and on a
// remote worker the arena of the task loop that runs it. sample, when
// non-nil, computes the value of a canonical adaptive one, typically from the
// cell's own Draws; with it nil, adaptive configurations run the fixed path.
func NewCell[C, T any](kind string,
	canon func(C) (cfg C, sampling *stats.RunConfig, attached bool),
	run func(a *sim.Arena, cfg C, args []int64) (T, error),
	sample func(c *Cell[C, T], r *Runner, cfg C, args []int64) (T, error),
) *Cell[C, T] {
	registerKind(kind, func(a *sim.Arena, raw json.RawMessage) (any, error) {
		var t task[C]
		if err := json.Unmarshal(raw, &t); err != nil {
			return nil, fmt.Errorf("engine: decoding %s config: %w", kind, err)
		}
		return run(a, t.Cfg, t.Args)
	})
	return &Cell[C, T]{kind: kind, canon: canon, run: run, sample: sample}
}

// Key returns the cell's content-addressed key at cfg and args: the SHA-256
// of (kind, canonical cfg, args...) as JSON. It is "" — uncacheable — when
// cfg carries an attachment the key cannot see, or when an adaptive
// wall-clock budget makes the value depend on host speed.
func (c *Cell[C, T]) Key(cfg C, args ...int64) string {
	cfg, rc, attached := c.canon(cfg)
	return c.key(cfg, rc, attached, args)
}

func (c *Cell[C, T]) key(cfg C, rc *stats.RunConfig, attached bool, args []int64) string {
	if attached || rc != nil && rc.Budget > 0 {
		return ""
	}
	var buf [4]any
	parts := append(buf[:0], c.kind, cfg)
	for _, a := range args {
		parts = append(parts, a)
	}
	key, err := Key(parts...)
	if err != nil {
		return ""
	}
	return key
}

// Run returns the cell's value at cfg and args, from the runner's memo or
// disk cache when the cell is keyed. A miss on the fixed path computes on
// the installed Executor's workers when there is one and the configuration
// travels, locally otherwise; an adaptive configuration runs the cell's
// sampler (see Sampled). A nil runner is a fresh default Runner.
func (c *Cell[C, T]) Run(rn *Runner, cfg C, args ...int64) (T, error) {
	r := OrDefault(rn)
	cfg, rc, attached := c.canon(cfg)
	if rc != nil && c.sample != nil {
		return Sampled(r, c, cfg, args, func() (T, error) { return c.sample(c, r, cfg, args) })
	}
	key := c.key(cfg, rc, attached, args)
	var remote *remoteCell
	if r.exec != nil && key != "" && !r.noCache {
		remote = &remoteCell{kind: c.kind, encode: func() json.RawMessage { return encodeTask[C](cfg, args) }}
	}
	return doAs(r, key, remote, func(a *sim.Arena) (T, error) { return c.run(a, cfg, args) })
}

// Sampled resolves an adaptive configuration of the cell — one whose canon
// reports a sampling config — as one cell under the cell's key (the sampling
// config is part of cfg, so it never aliases a fixed cell) whose value fn
// computes, typically from Draws. V may differ
// from T: a classic point carries its estimate, the fixed cell is a number.
// It runs locally: it drives draws, and the draws are what distribute.
func Sampled[C, T, V any](rn *Runner, c *Cell[C, T], cfg C, args []int64, fn func() (V, error)) (V, error) {
	cfg, rc, attached := c.canon(cfg)
	if err := rc.Validate(); err != nil {
		var zero V
		return zero, err
	}
	return doAs(OrDefault(rn), c.key(cfg, rc, attached, args), nil, func(*sim.Arena) (V, error) { return fn() })
}

// Draws is the single-metric adaptive loop: draw d runs the cell at
// reseed(cfg, d) — cfg with its sampling config cleared and a seed derived
// for d — as an ordinary cell of the kind, so draws are cached and
// distribute, until a sampler over cfg's sampling config has what it needs.
// It returns the first draw's value and the estimate of metric.
func (c *Cell[C, T]) Draws(r *Runner, cfg C, args []int64, reseed func(C, int) C, metric func(T) float64) (T, stats.Estimate, error) {
	_, rc, _ := c.canon(cfg)
	s := stats.NewSampler(*rc)
	var first T
	for d := 0; !s.Done(); d++ {
		v, err := c.Run(r, reseed(cfg, d), args...)
		if err != nil {
			return first, stats.Estimate{}, fmt.Errorf("%s: adaptive draw %d: %w", c.kind, d, err)
		}
		if d == 0 {
			first = v
		}
		s.Add(metric(v))
	}
	return first, s.Estimate(), nil
}

// task is a cell's configuration on the wire: the values its key hashes
// after the kind.
type task[C any] struct {
	Cfg  C       `json:"cfg"`
	Args []int64 `json:"args,omitempty"`
}

// encodeTask renders a cell's configuration for the wire, or nil when it
// does not decode back (an interface-typed field, say) and so cannot travel.
func encodeTask[C any](cfg C, args []int64) json.RawMessage {
	raw, err := json.Marshal(task[C]{cfg, args})
	if err != nil || json.Unmarshal(raw, new(task[C])) != nil {
		return nil
	}
	return raw
}

// KindFunc is a kind's worker-side execute function: it decodes a task's
// config JSON and returns the value, building its simulation on arena a,
// which serves one task at a time (nil is the empty arena). The value must
// marshal to the JSON a local run of the cell would produce.
type KindFunc func(a *sim.Arena, config json.RawMessage) (any, error)

var (
	kindMu sync.RWMutex
	kinds  = map[string]KindFunc{}
)

// registerKind installs a kind's worker-side execute function.
func registerKind(name string, fn KindFunc) {
	if name == "" {
		panic("engine: cell kind with empty name")
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	if _, dup := kinds[name]; dup {
		panic(fmt.Sprintf("engine: cell kind %q defined twice", name))
	}
	kinds[name] = fn
}

// LookupKind returns the worker-side execute function of a defined kind, or
// nil.
func LookupKind(name string) KindFunc {
	kindMu.RLock()
	defer kindMu.RUnlock()
	return kinds[name]
}

// Kinds lists the registered cell kinds, sorted.
func Kinds() []string {
	kindMu.RLock()
	defer kindMu.RUnlock()
	names := make([]string, 0, len(kinds))
	for n := range kinds {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

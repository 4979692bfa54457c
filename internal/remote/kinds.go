package remote

import (
	"encoding/json"

	"partmb/internal/engine"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// RegisterKind defines a cell kind whose configuration is raw JSON
// (engine.NewCell): a worker executes its tasks by calling fn with the
// task's config, and fn builds no simulation on the worker's arena. Every
// experiment kind is defined by its own package; this form is kept for
// callers outside this module.
func RegisterKind(name string, fn func(config json.RawMessage) (any, error)) {
	engine.NewCell(name,
		func(c json.RawMessage) (json.RawMessage, *stats.RunConfig, bool) { return c, nil, false },
		func(_ *sim.Arena, c json.RawMessage, _ []int64) (any, error) { return fn(c) }, nil)
}

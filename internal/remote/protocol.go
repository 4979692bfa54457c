// Package remote distributes engine cells across worker processes.
//
// The package has two halves. The Coordinator embeds in a driving process
// (sweepd with -distributed, or a test harness): it implements
// engine.Executor, so a Runner built with engine.WithExecutor ships every
// serializable cell to it, and it implements http.Handler, exposing the
// worker-facing wire protocol under /v1/workers/. The Worker runtime embeds
// in cmd/sweepworker (or runs in-process in tests): it registers with a
// coordinator, heartbeats, long-polls for tasks, executes them through the
// kind registry, and posts results back.
//
// The wire protocol is deliberately minimal and content-addressed, mirroring
// the disk cache: a task is (spec hash, experiment label, cell kind, config
// JSON) and a result is (cell value JSON, worker host-ns cost). Because the
// engine's cell key already hashes the full configuration, a cell is
// location-independent — executing it on a worker can change only wall-clock
// time, never bytes — which is what makes a distributed run's journal
// byte-identical to a local run's (see DESIGN.md §11).
//
// Every message carries the wire schema version; a coordinator rejects
// mismatched workers at registration, the same forward-compatibility
// discipline the disk cache applies with its schema-versioned directory.
package remote

import "encoding/json"

// WireSchema versions the coordinator/worker wire protocol. Bump it when a
// message shape changes incompatibly: mismatched workers are turned away at
// registration with a clear error instead of failing mid-sweep on a decode.
const WireSchema = 1

// Wire paths, all rooted under the coordinator's /v1/workers/ prefix.
const (
	PathRegister  = "/v1/workers/register"  // POST RegisterRequest  → RegisterResponse
	PathHeartbeat = "/v1/workers/heartbeat" // POST HeartbeatRequest → 204
	PathPoll      = "/v1/workers/poll"      // POST PollRequest      → Task | 204 (no work)
	PathResult    = "/v1/workers/result"    // POST Result           → 204
	PathLeave     = "/v1/workers/leave"     // POST LeaveRequest     → 204
	PathStatus    = "/v1/workers"           // GET                   → Status
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Schema int `json:"schema"`
	// Name is the worker's display name (host-pid by default); it labels
	// journal/metrics/trace lanes. Names need not be unique — the
	// coordinator-issued WorkerID is the identity.
	Name string `json:"name"`
}

// RegisterResponse assigns the worker its coordinator-issued identity.
type RegisterResponse struct {
	Schema   int    `json:"schema"`
	WorkerID string `json:"worker_id"`
}

// HeartbeatRequest keeps a worker's registration live. A worker that misses
// the coordinator's heartbeat timeout is declared lost: its leased tasks fail
// transiently, which the engine's retry policy turns into a re-dispatch.
type HeartbeatRequest struct {
	Schema   int    `json:"schema"`
	WorkerID string `json:"worker_id"`
}

// PollRequest asks for the next task, long-polling up to WaitMS.
type PollRequest struct {
	Schema   int    `json:"schema"`
	WorkerID string `json:"worker_id"`
	WaitMS   int    `json:"wait_ms,omitempty"`
}

// Task is one cell dispatched to a worker.
type Task struct {
	Schema int `json:"schema"`
	// ID is the coordinator's dispatch identity for this resolution of the
	// cell; results echo it. (The same Key can be dispatched again later —
	// e.g. a retry after a transient failure — with a fresh ID.)
	ID int64 `json:"id"`
	// Key is the engine's content-addressed cell key (the spec hash).
	Key string `json:"key"`
	// Experiment is the engine experiment label current at dispatch.
	Experiment string `json:"exp,omitempty"`
	// Kind names the cell kind the worker executes (engine.LookupKind).
	Kind string `json:"kind"`
	// Config is the cell's configuration and key parts, {"cfg": …,
	// "args": […]} — the values the cell key hashes after the kind.
	Config json.RawMessage `json:"config"`
}

// Error classes a worker reports, mapping onto the engine's error taxonomy.
const (
	// ErrClassTransient marks failures worth retrying elsewhere (unknown
	// kind, resource exhaustion); the engine retries the cell.
	ErrClassTransient = "transient"
	// ErrClassPermanent marks deterministic cell failures (invalid config);
	// the engine memoizes them exactly like a local error.
	ErrClassPermanent = "permanent"
)

// Result reports one executed task.
type Result struct {
	Schema   int    `json:"schema"`
	WorkerID string `json:"worker_id"`
	ID       int64  `json:"id"`
	Key      string `json:"key"`
	// Value is the cell's result JSON (present exactly when Err is empty);
	// the coordinator feeds it to the same decoder the disk cache uses.
	Value json.RawMessage `json:"value,omitempty"`
	// HostNS is the worker's measured wall-clock cost of executing the cell,
	// in nanoseconds.
	HostNS int64 `json:"host_ns,omitempty"`
	// Err and ErrClass carry a failed cell's error text and class.
	Err      string `json:"err,omitempty"`
	ErrClass string `json:"err_class,omitempty"`
}

// LeaveRequest announces a graceful departure: the worker stops counting as
// live at once instead of after the heartbeat timeout.
type LeaveRequest struct {
	Schema   int    `json:"schema"`
	WorkerID string `json:"worker_id"`
}

// Status is the coordinator's introspection snapshot (GET /v1/workers).
type Status struct {
	Schema  int            `json:"schema"`
	Workers []WorkerStatus `json:"workers"`
	// Dispatch counters since the coordinator started.
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Lost       int64 `json:"lost"`
	// Queued counts dispatched cells no worker has leased yet.
	Queued int `json:"queued"`
	// Stolen and Requeued are always 0: the one queue has nothing to steal
	// or requeue. They stay only because bench/remote.go reads them and
	// goes with the next PR allowed to edit bench/.
	Stolen   int64 `json:"stolen"`
	Requeued int64 `json:"requeued"`
}

// WorkerStatus describes one registered worker.
type WorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Live is false once the worker left or missed its heartbeat window.
	Live bool `json:"live"`
	// Leased counts tasks the worker polled and has not yet reported.
	Leased    int   `json:"leased"`
	Completed int64 `json:"completed"`
}

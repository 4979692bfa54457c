package engine

// This file is the engine's remote-execution seam. A Runner normally
// computes a cell by calling its closure on a local worker lane; with an
// Executor installed (WithExecutor), keyed cells whose configuration travels
// (Cell.Run) are shipped to the executor instead — the internal/remote
// coordinator dispatches them to registered `partmb work` daemons over a
// small schema-versioned wire protocol.
//
// The seam is deliberately narrow and content-addressed: a remote task is
// (key, experiment label, kind, config JSON), and a remote result is the
// cell's value JSON plus the worker's host-time cost. Because the cell key
// already hashes the full configuration, a cell is location-independent —
// where it ran can change only wall-clock time, never bytes. Everything
// above the seam (memoization, single-flight, the disk cache, retries,
// observers) applies to remote cells unchanged:
//
//   - a remote result is decoded with the same decodeFunc the disk cache
//     uses, then stored to disk by the same post-compute path, so a
//     distributed sweep populates the shared cache exactly like a local one;
//   - remote failures carry the PR-2 error classes across the wire: a lost
//     worker or an undecodable response surfaces as a Transient error, so
//     the runner's retry requeues the cell (the executor picks a
//     surviving worker on the next attempt); a permanent cell error is
//     memoized like a local one;
//   - ErrNoWorkers degrades gracefully: the cell runs locally, so an
//     executor-equipped daemon with no registered workers behaves exactly
//     like a local one.

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"time"
)

// RemoteTask is one cell shipped to an Executor: its content-addressed key
// (the spec hash), the engine experiment label, the registered cell kind
// naming the worker-side execute function, and the cell's configuration as
// canonical JSON.
type RemoteTask struct {
	Key        string
	Experiment string
	Kind       string
	Config     json.RawMessage
}

// RemoteResult is a successfully executed remote cell: the value JSON (fed
// to the same decoder the disk cache uses), the worker's measured host-time
// cost in nanoseconds, and the name of the worker that ran it.
type RemoteResult struct {
	Value  json.RawMessage
	HostNS int64
	Worker string
}

// Executor runs one cell on a remote backend. Implementations must be safe
// for concurrent use (every engine worker lane may call Execute at once)
// and should classify failures: errors wrapped with Transient are retried
// up to maxAttempts times (use this for worker loss and transport
// failures), anything else is treated — and memoized — as a permanent cell
// error. Returning ErrNoWorkers makes the runner compute the cell locally.
type Executor interface {
	Execute(ctx context.Context, t RemoteTask) (RemoteResult, error)
}

// ErrNoWorkers reports that an Executor currently has no live worker to
// dispatch to. The runner treats it as "execute locally", never as a cell
// failure, so a distributed runner degrades to a local one when its last
// worker leaves.
var ErrNoWorkers = errors.New("engine: no live remote workers")

// WithExecutor installs a remote executor: keyed cells entered through
// Cell.Run are dispatched to it instead of computing on the local lane
// (falling back to local on ErrNoWorkers). Cells without a serializable
// form (plain Do, empty keys, configurations that do not decode back)
// always run locally.
func WithExecutor(x Executor) Option {
	return func(r *Runner) { r.exec = x }
}

// remoteCell carries a cell's serializable identity through the do/compute
// pipeline, plus the per-resolution remote outcome the observer reports.
// The config is encoded once, on the first dispatch attempt.
type remoteCell struct {
	kind    string
	encode  func() json.RawMessage
	payload json.RawMessage

	// worker and hostNS record the last attempt's remote outcome for the
	// observer's CellEvent; empty when every attempt ran locally.
	worker string
	hostNS int64
}

// runRemote executes one attempt of a cell through the runner's executor,
// falling back to the local closure when the executor has no workers. An
// undecodable remote value is a transient failure — the worker that
// produced it may be broken, and a retry lands elsewhere — never a
// memoized outcome.
func (r *Runner) runRemote(key string, rc *remoteCell, decode decodeFunc, fn cellFunc) (any, error) {
	if rc.payload == nil {
		if rc.payload = rc.encode(); rc.payload == nil {
			return r.runLocal(fn) // the configuration does not travel
		}
	}
	res, err := r.exec.Execute(context.Background(), RemoteTask{
		Key:        key,
		Experiment: r.Experiment(),
		Kind:       rc.kind,
		Config:     rc.payload,
	})
	if errors.Is(err, ErrNoWorkers) {
		return r.runLocal(fn)
	}
	if err != nil {
		atomic.AddInt64(&r.remoteErrs, 1)
		return nil, err
	}
	atomic.AddInt64(&r.remoteRuns, 1)
	atomic.AddInt64(&r.remoteNS, res.HostNS)
	rc.worker, rc.hostNS = res.Worker, res.HostNS
	v, derr := decode(res.Value)
	if derr != nil {
		atomic.AddInt64(&r.remoteErrs, 1)
		rc.worker, rc.hostNS = "", 0
		return nil, Transientf("engine: undecodable remote result from %s: %v", res.Worker, derr)
	}
	return v, nil
}

// remoteStats folds the remote counters into a Stats snapshot.
func (r *Runner) remoteStats(st *Stats) {
	st.RemoteRuns = atomic.LoadInt64(&r.remoteRuns)
	st.RemoteErrors = atomic.LoadInt64(&r.remoteErrs)
	st.RemoteHost = time.Duration(atomic.LoadInt64(&r.remoteNS))
}

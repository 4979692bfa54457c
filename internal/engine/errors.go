package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"partmb/internal/sim"
)

// The memoizing cache classifies cell errors into four classes:
//
//   - cancellation (context.Canceled / context.DeadlineExceeded): never
//     cached. A cell usually observes cancellation only because a sibling
//     cell failed first and the sweep's context was torn down; memoizing
//     that outcome would poison shared cells (e.g. the p=1 baselines reused
//     across Figs. 4–6/8) for the rest of the process.
//   - transient (wrapped with Transient): retried up to maxAttempts times,
//     never cached. This is how a lost remote worker and other recoverable
//     conditions surface.
//   - panic (a cell function that panicked, see call): returned as an
//     error instead of killing the process, not retried and never cached. A
//     panic is a bug being reported, not a result: one bad spec must not
//     take a long-lived sweepd or sweepworker down, and its outcome must not
//     outlive the request that hit it.
//   - permanent (everything else): cached like a value — the simulator is
//     deterministic, so a cell that failed once fails every time.

// transientError marks an error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return "transient: " + e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err as a transient failure: the runner retries it up to
// maxAttempts times and never memoizes it. A nil err stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// Transientf is Transient(fmt.Errorf(format, args...)).
func Transientf(format string, args ...any) error {
	return Transient(fmt.Errorf(format, args...))
}

// IsTransient reports whether err is (or wraps) a transient failure.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// panicError is the outcome of a cell whose function panicked. Procs run on
// coroutines, so a panic anywhere in a simulation — a proc, an event
// callback, a model invariant — unwinds out of sim.Scheduler.Run on the
// engine worker's goroutine, where call catches it.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("engine: cell panicked: %v\n%s", e.value, e.stack)
}

// call runs one attempt of a cell function on arena a, turning a panic into
// a *panicError.
func call(fn cellFunc, a *sim.Arena) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, &panicError{value: p, stack: debug.Stack()}
		}
	}()
	return fn(a)
}

// IsCancellation reports whether err is a context cancellation or deadline
// expiry — the two abort flavours that say nothing about the cell itself
// and must never be memoized or outrank a real error.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cacheable reports whether a computation outcome may be memoized.
func cacheable(err error) bool {
	if err == nil {
		return true // before p below, which errors.As makes a heap allocation
	}
	var p *panicError
	return !IsCancellation(err) && !IsTransient(err) && !errors.As(err, &p)
}

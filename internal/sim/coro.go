//go:build go1.23

package sim

import "iter"

// runner is one runtime coroutine that executes procs, one after another.
// The drive loop enters it with next() and the proc it carries leaves it
// with yield() — a coroswitch each way, no channel and no trip through the
// Go scheduler. A runner outlives its proc: when the proc's function
// returns the runner puts itself on its scheduler's idle list and the next
// proc started reuses it, Proc value included, so a team forked every
// iteration costs one coroutine and one Proc per member for the whole run,
// not per fork.
//
// This is the only file that needs Go 1.23 (iter.Pull); the build tag keeps
// the module's go line where the bench module expects it.
type runner struct {
	s *Scheduler
	// p is the proc the runner carries. start overwrites it with a new id
	// at the same address; a wake still pending for the previous incarnation
	// carries that one's id and is dropped (see Scheduler.dispatch).
	p Proc
	// body and t are what p runs: member t of a fork. join is the proc
	// whose ForkJoin waits for p, if any.
	body Thread
	t    int
	join *Proc
	next func() (struct{}, bool)
	stop func()
	// yield suspends the coroutine until the next next(); it reports false
	// only after stop, which the scheduler calls when a drive has ended for
	// good (see Scheduler.stopRunners).
	yield func(struct{}) bool
}

// newRunner creates a runner on s. The coroutine does not start until the
// first next().
func newRunner(s *Scheduler) *runner {
	r := &runner{s: s}
	r.next, r.stop = iter.Pull(iter.Seq[struct{}](r.loop))
	return r
}

// loop is the coroutine body: run the assigned proc to completion, retire
// it, go idle, repeat until stopped. A panic in the body unwinds out of
// loop and resurfaces from next() on the driving goroutine; the runner is
// dead after that, and so is the drive.
func (r *runner) loop(yield func(struct{}) bool) {
	r.yield = yield
	for r.runProc() && yield(struct{}{}) {
	}
}

// runProc runs the assigned proc and retires it. It reports false when the
// proc did not finish but was unwound by stop while parked.
func (r *runner) runProc() (finished bool) {
	defer func() {
		if finished {
			return
		}
		// nil is runtime.Goexit passing through (t.Fatal inside a proc).
		if v := recover(); v != nil && v != (procKilled{}) {
			panic(v)
		}
	}()
	s := r.s
	p := &r.p
	r.body.Thread(p, r.t)
	if q := r.join; q != nil {
		if q.forks--; q.forks == 0 {
			s.wake(q)
		}
	}
	p.dead = true
	r.body, r.join = nil, nil
	s.live--
	s.dropProc(p)
	s.idle = append(s.idle, r)
	return true
}

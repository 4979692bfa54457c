// Package sim provides a deterministic discrete-event simulation kernel with
// cooperative actors ("procs").
//
// Each proc runs on a runtime coroutine (iter.Pull, see coro.go): the drive
// loop switches into a proc when its wake event fires, and the proc switches
// back when it blocks (Sleep, mutex wait, condition wait, ...) or returns.
// Exactly one of them executes at any instant, on the goroutine that called
// Run, so all simulator state needs no locking and a panic inside a proc
// surfaces from Run like any other. Procs start one way: Fork starts n
// members of a Thread body (ForkJoin also waits for them), and Spawn is a
// one-member fork of a func. Coroutines are pooled per Scheduler: a finished
// proc's coroutine, and its Proc value, carry the next proc started.
// When a drive drains cleanly they go back to the Arena the scheduler came
// from, for the next scheduler built from it (see Arena); without one, or
// when a drive dies, all of them are stopped (procs still parked are
// unwound), so a simulation leaves nothing behind however it ends.
// Events with equal timestamps fire in the order they were scheduled, so
// runs are bitwise reproducible.
//
// The kernel exposes virtual time (Time, Duration in nanoseconds) and a small
// set of synchronization primitives (Mutex, Cond, WaitGroup, Barrier,
// Completion) mirroring their sync-package counterparts but operating in
// virtual time.
package sim

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Time is an absolute instant of virtual time, in nanoseconds since the start
// of the simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It deliberately mirrors
// time.Duration so the usual constants convert directly.
type Duration int64

// Handy duration units, matching time package values.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Microseconds returns the duration as a floating-point number of microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e3 }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	// Format the magnitude as a uint64: negating MinInt64 as a Duration
	// overflows back to itself.
	sign, m := "", uint64(d)
	if d < 0 {
		sign, m = "-", -m
	}
	switch {
	case m < uint64(Microsecond):
		return fmt.Sprintf("%s%dns", sign, m)
	case m < uint64(Millisecond):
		return fmt.Sprintf("%s%.3gus", sign, float64(m)/1e3)
	case m < uint64(Second):
		return fmt.Sprintf("%s%.4gms", sign, float64(m)/1e6)
	default:
		return fmt.Sprintf("%s%.4gs", sign, float64(m)/1e9)
	}
}

// MarshalText renders the duration exactly, as an integer count of the
// largest unit that divides it evenly ("900ns", "-10ms", "2s"), so JSON round
// trips are lossless for every int64. This is distinct from String, whose
// adaptive %.3g formatting is for display only.
func (d Duration) MarshalText() ([]byte, error) {
	unit, name := Nanosecond, "ns"
	switch {
	case d%Second == 0:
		unit, name = Second, "s"
	case d%Millisecond == 0:
		unit, name = Millisecond, "ms"
	case d%Microsecond == 0:
		unit, name = Microsecond, "us"
	}
	b := strconv.AppendInt(make([]byte, 0, len("-9223372036854775808ns")), int64(d/unit), 10)
	return append(b, name...), nil
}

// UnmarshalText parses the forms accepted by ParseDuration. MarshalText's
// canonical form — an optional '-', decimal digits, then ns, us, ms or s — is
// parsed in exact integer arithmetic, so every int64 round-trips; any other
// text (fractions, spaces, upper case) goes through ParseDuration.
func (d *Duration) UnmarshalText(b []byte) error {
	if v, ok := parseCanonical(b); ok {
		*d = v
		return nil
	}
	v, err := ParseDuration(string(b))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// parseCanonical parses MarshalText's canonical form, reporting false for
// any other text and for values outside int64.
func parseCanonical(b []byte) (Duration, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) < 2 || b[len(b)-1] != 's' {
		return 0, false
	}
	b = b[:len(b)-1]
	unit := Second
	switch b[len(b)-1] {
	case 'n':
		unit, b = Nanosecond, b[:len(b)-1]
	case 'u':
		unit, b = Microsecond, b[:len(b)-1]
	case 'm':
		unit, b = Millisecond, b[:len(b)-1]
	}
	if len(b) == 0 {
		return 0, false
	}
	// Accumulate the magnitude in uint64, which holds -MinInt64.
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	limit /= uint64(unit)
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' || n > (limit-uint64(c-'0'))/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	n *= uint64(unit)
	if neg {
		return Duration(-n), true
	}
	return Duration(n), true
}

// ParseDuration parses durations such as "10ms", "100us", "250ns", "1.5s"
// (and negative forms) into virtual time.
func ParseDuration(s string) (Duration, error) {
	trimmed := strings.ToLower(strings.TrimSpace(s))
	neg := strings.HasPrefix(trimmed, "-")
	trimmed = strings.TrimPrefix(trimmed, "-")
	if trimmed == "" {
		return 0, fmt.Errorf("sim: empty duration")
	}
	mult := Nanosecond
	digits := trimmed
	switch {
	case strings.HasSuffix(trimmed, "ms"):
		mult, digits = Millisecond, strings.TrimSuffix(trimmed, "ms")
	case strings.HasSuffix(trimmed, "us"):
		mult, digits = Microsecond, strings.TrimSuffix(trimmed, "us")
	case strings.HasSuffix(trimmed, "ns"):
		digits = strings.TrimSuffix(trimmed, "ns")
	case strings.HasSuffix(trimmed, "s"):
		mult, digits = Second, strings.TrimSuffix(trimmed, "s")
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(digits), 64)
	if err != nil {
		return 0, fmt.Errorf("sim: bad duration %q", s)
	}
	v := n * float64(mult)
	// Converting a float beyond int64 range (or NaN) to Duration is
	// implementation-defined and can silently come out negative.
	if math.IsNaN(v) || v >= math.MaxInt64 || v <= -math.MaxInt64 {
		return 0, fmt.Errorf("sim: duration %q out of range", s)
	}
	d := Duration(v)
	if neg {
		d = -d
	}
	return d, nil
}

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Handler receives events scheduled with AtFire or DeferFire. op is the
// value passed when the event was scheduled: one object that takes part in
// several steps (a message arriving, being delivered, being matched) tells
// them apart by it, so no step needs a closure of its own.
type Handler interface{ Fire(op int) }

// funcHandler lets at and Defer ride on the handler path. A func
// value is pointer-shaped, so converting one to Handler does not allocate.
type funcHandler func()

func (f funcHandler) Fire(int) { f() }

// event is a proc wake (proc != nil, op the proc's id) or a handler call
// (h.Fire(op)). Neither carries a closure: the run loop resumes a proc from
// its fields, and a handler is an object its owner already has,
// so scheduling either never allocates. Events are recycled through the
// scheduler's freelist.
type event struct {
	at Time
	// born is the virtual time the event was created at, the first tiebreak
	// for same-time events, compared only in the queue's current-time list
	// (see eventQueue). On a single scheduler seq order is already
	// nondecreasing in born (the clock is monotonic), so born never reorders
	// anything; it exists for cross-shard events delivered at a window
	// barrier, which must interleave with local same-time events exactly as
	// they would have on one scheduler (see ShardGroup.deliver).
	born Time
	seq  uint64
	proc *Proc
	h    Handler
	op   int
}

// DeadlockError is returned by Run when live procs remain but no future event
// can wake any of them. The blocked procs are unwound (their deferred calls
// run) and their coroutines released before Run returns.
type DeadlockError struct {
	// Now is the virtual time at which the simulation stalled.
	Now Time
	// Blocked lists "name: reason" for every parked proc.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v with %d blocked procs: %s",
		Duration(e.Now), len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// EventCounts is what a scheduler's drives did: every event popped off the
// queue and dispatched (wakes of procs that have since finished included),
// every sleep that took Sleep's short cut instead of the queue, and every
// switch into a proc's coroutine. All three are deterministic, so they
// witness a change to the kernel that must leave a simulation's work as it
// was.
type EventCounts struct {
	Popped   int64 `json:"popped"`
	ShortCut int64 `json:"short_cut"`
	Resumes  int64 `json:"resumes"`
}

// add sums d into c.
func (c *EventCounts) add(d EventCounts) {
	c.Popped += d.Popped
	c.ShortCut += d.ShortCut
	c.Resumes += d.Resumes
}

// maxTime is the fast-path drive limit for an unbounded Run.
const maxTime = Time(math.MaxInt64)

// Scheduler owns the virtual clock, the event queue, and all procs.
// The zero value is not usable; call New.
type Scheduler struct {
	now     Time
	seq     uint64
	queue   *eventQueue
	free    []*event // event freelist: every pop recycles into the next push
	live    int
	procSeq int
	counts  EventCounts

	// procs lists the live procs for deadlock diagnostics; finished procs
	// are swap-removed. Park reasons live on the Proc as a code + args and
	// are only formatted when a DeadlockError is built.
	procs []*Proc

	// idle holds the coroutines of finished procs, reused by the next Spawn
	// and given back or stopped when a drive drains (see release); runners
	// counts those this scheduler created.
	idle    []*runner
	runners int
	// arena is the Arena the scheduler came from and gives back to, until
	// it has given back or been reclaimed; nil for New.
	arena *Arena
	// kept is what the arena's previous scheduler kept, until Kept takes
	// it; keep is what this one keeps for the next (see Keep).
	kept, keep any

	// driving is set while a drive loop (Run, runUntil) is on the
	// stack; re-entering a drive from an event callback panics.
	driving bool
	// running becomes true once a drive has fully drained the queue; it is
	// terminal — no further drives are allowed.
	running bool
	// limit is the current drive's horizon. Sleep's short cut applies to
	// sleeps ending at or before it: with nothing due before the wake, the
	// clock advances and the proc keeps running instead of pushing a wake
	// and switching to the drive loop and back.
	limit Time

	// Sharding state (see shard.go). group is nil for standalone schedulers
	// and for the single shard of a one-shard group, so the sequential fast
	// paths are untouched in that case. windowing marks a group-driven
	// window so startDrive can reject direct drives of group members.
	group     *ShardGroup
	shardID   int
	windowing bool
	outbox    []crossEvent
}

// New returns an empty simulation scheduler with the clock at zero: the
// scheduler of the empty arena, which keeps nothing for a next one.
func New() *Scheduler {
	var a *Arena
	return a.New()
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// newEvent takes an event from the freelist (or allocates one) and stamps
// it with the next sequence number.
func (s *Scheduler) newEvent(t Time, p *Proc, h Handler, op int) *event {
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	e.at, e.born, e.seq, e.proc, e.h, e.op = t, s.now, s.seq, p, h, op
	return e
}

// recycle returns a popped event to the freelist, dropping its references.
func (s *Scheduler) recycle(e *event) {
	e.proc, e.h = nil, nil
	s.free = append(s.free, e)
}

// AtFire schedules h.Fire(op) to run in scheduler context at absolute time
// t. Scheduling in the past panics: virtual time is monotonic.
func (s *Scheduler) AtFire(t Time, h Handler, op int) {
	s.atBorn(t, s.now, h, op)
}

// at schedules fn to run in scheduler context at absolute time t: AtFire
// with the func itself as the handler.
func (s *Scheduler) at(t Time, fn func()) { s.AtFire(t, funcHandler(fn), 0) }

// atBorn is AtFire with an explicit creation stamp born <= t. The window
// barrier uses it so a cross-shard event inherits its sender-side creation
// time: same-time events then fire in creation-time order exactly as they
// would have on a single scheduler, instead of in barrier-delivery order.
func (s *Scheduler) atBorn(t, born Time, h Handler, op int) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	e := s.newEvent(t, nil, h, op)
	e.born = born
	s.queue.push(e)
}

// parkKind encodes why a proc is parked; the human-readable reason is only
// formatted when a DeadlockError needs it, so the hot sleep/wake path never
// builds a diagnostic string.
type parkKind uint8

const (
	parkNone parkKind = iota
	parkSleep
	parkMutex
	parkCond
	parkWaitGroup
	parkBarrier
	parkCompletion
)

// Proc is a cooperative actor. Every blocking method must be called by the
// proc itself (i.e. from within the body it was started with).
//
// A *Proc is valid until its body returns. The value lives in the runner
// that carries it, and the next proc started on that runner reuses it with
// a new id, so a pointer kept past the return names whichever proc runs
// there now.
type Proc struct {
	s *Scheduler
	// name is Spawn's name; a fork member's is its body's ThreadName,
	// formatted only when asked for (see Name).
	name string
	id   int
	idx  int     // position in s.procs, for swap-removal on death
	run  *runner // the coroutine carrying this proc; nil once unwound
	dead bool    // the body returned, or the drive unwound it
	// forks counts the members of this proc's ForkJoin still running.
	forks int
	// wakeScheduled guards against double-wake: a proc may be the target of
	// at most one pending wake event.
	wakeScheduled bool
	// parkKind/parkA/parkB are the lazy park reason: a code plus two
	// numeric arguments, formatted by parkReason only on deadlock.
	parkKind     parkKind
	parkA, parkB int64
}

// parkReason formats the proc's current park reason, byte-identical to the
// strings the kernel used to build eagerly on every park.
func (p *Proc) parkReason() string {
	switch p.parkKind {
	case parkSleep:
		return fmt.Sprintf("sleep %v until %v", Duration(p.parkA), Time(p.parkB))
	case parkMutex:
		return "mutex wait"
	case parkCond:
		return "cond wait"
	case parkWaitGroup:
		return "waitgroup wait"
	case parkBarrier:
		return fmt.Sprintf("barrier gen %d", p.parkA)
	case parkCompletion:
		return "completion wait"
	default:
		return "running"
	}
}

// label returns the name the proc was spawned with, or for a fork member
// its body's ThreadName, formatted now.
func (p *Proc) label() string {
	if r := p.run; p.name == "" && r != nil && r.body != nil {
		return r.body.ThreadName(r.t)
	}
	return p.name
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Scheduler returns the scheduler this proc belongs to.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Thread is the body of forked procs: member t of a fork runs
// Thread(tp, t). ThreadName(t) names member t in deadlock diagnostics; it
// is called only then, so a fork formats no names. One body
// value serves every member of a fork and every fork after it, and the
// thread index travels on the runner, so starting a member allocates
// nothing.
type Thread interface {
	Thread(tp *Proc, t int)
	ThreadName(t int) string
}

// funcThread runs Spawn's func as a one-member fork. A func value is
// pointer-shaped, so converting one to Thread does not allocate; its name
// is the Proc's own.
type funcThread func(p *Proc)

func (f funcThread) Thread(p *Proc, _ int) { f(p) }
func (f funcThread) ThreadName(int) string { return "" }

// Spawn creates a new proc executing fn: a one-member fork named name. It
// may be called before Run or from inside a running proc or event callback.
// The proc starts at the current virtual time. The returned *Proc is valid
// until fn returns (see Proc).
func (s *Scheduler) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.start(funcThread(fn), 0, name, nil)
}

// Fork starts n procs at the current virtual time, member t running
// body.Thread(tp, t), in index order. It may be called wherever Spawn may.
func (s *Scheduler) Fork(body Thread, n int) {
	for t := 0; t < n; t++ {
		s.start(body, t, "", nil)
	}
}

// ForkJoin forks n members from p, as Fork does, and blocks p until every
// one of them has returned: one fork/join of an OpenMP parallel region. p
// waits as a WaitGroup waiter does, so its deadlock reason reads
// "waitgroup wait".
func (p *Proc) ForkJoin(body Thread, n int) {
	s := p.s
	p.forks += n
	for t := 0; t < n; t++ {
		s.start(body, t, "", p)
	}
	for p.forks > 0 {
		p.park(parkWaitGroup, 0, 0)
	}
}

// start is the one way a proc starts: it takes an idle runner (or makes
// one), gives it member t of body, and wakes the new proc now. join, when
// set, is the proc whose ForkJoin waits for this one.
func (s *Scheduler) start(body Thread, t int, name string, join *Proc) *Proc {
	var r *runner
	if n := len(s.idle); n > 0 {
		r = s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
	} else {
		r = newRunner(s)
		s.runners++
	}
	s.procSeq++
	r.p = Proc{s: s, name: name, id: s.procSeq, idx: len(s.procs), run: r}
	r.body, r.t, r.join = body, t, join
	p := &r.p
	s.procs = append(s.procs, p)
	s.live++
	s.wake(p)
	return p
}

// stopRunners ends every coroutine the scheduler still has: those of procs
// left parked by a deadlock or by a panic that unwound through the drive,
// then the idle ones. Each stop switches into the runner, which unwinds (a
// parked proc through park's procKilled panic) and returns, so the
// coroutines are gone when stopRunners returns. The procs stay listed in
// s.procs and counted in s.live: they did not finish.
func (s *Scheduler) stopRunners() {
	for _, p := range s.procs {
		if r := p.run; r != nil {
			p.dead, p.run = true, nil
			r.stop()
		}
	}
	for i, r := range s.idle {
		r.stop()
		s.idle[i] = nil
	}
	s.idle = s.idle[:0]
}

// dropProc swap-removes a finished proc from the diagnostics list.
func (s *Scheduler) dropProc(p *Proc) {
	last := len(s.procs) - 1
	moved := s.procs[last]
	s.procs[p.idx] = moved
	moved.idx = p.idx
	s.procs[last] = nil
	s.procs = s.procs[:last]
}

// wake schedules p to resume at the current time. It is idempotent while a
// wake is already pending and a no-op on dead procs.
func (s *Scheduler) wake(p *Proc) {
	s.wakeAt(s.now, p)
}

// wakeAt schedules p to resume at time t. Idempotent while a wake is
// pending. The wake is a plain proc event — no closure is allocated — and
// carries p's id, the incarnation it is for.
func (s *Scheduler) wakeAt(t Time, p *Proc) {
	if p.dead || p.wakeScheduled {
		return
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	p.wakeScheduled = true
	s.queue.push(s.newEvent(t, p, nil, p.id))
}

// resumeProc switches from the drive loop into p's coroutine and returns
// when p parks or finishes. A panic inside p surfaces here.
func (s *Scheduler) resumeProc(p *Proc) {
	if p.dead {
		return
	}
	p.wakeScheduled = false
	p.parkKind = parkNone
	s.counts.Resumes++
	p.run.next()
}

// park suspends the calling proc until something wakes it. The kind and
// args form the lazy reason shown in deadlock diagnostics.
//
// park always yields to the drive loop, which dispatches the head event, so
// waking another proc costs two coroutine switches (out to the loop, in to
// the target). Coroutines are asymmetric — a proc can only switch to whoever
// resumed it — so there is no proc-to-proc shortcut, and none is needed: the
// two switches together (~100 ns) cost less than the one channel handoff
// (~180 ns) such a shortcut paid when procs were goroutines. The one wake
// that needs no switch at all — a sleep with nothing due before it — never
// gets here: Sleep returns without pushing it.
func (p *Proc) park(kind parkKind, a, b int64) {
	p.parkKind, p.parkA, p.parkB = kind, a, b
	if !p.run.yield(struct{}{}) {
		// The drive is over (deadlock, or a panic unwound through it) and
		// the scheduler is releasing this proc's coroutine.
		panic(procKilled{})
	}
}

// procKilled is what park panics with to unwind a proc whose drive has
// ended; runner.loop recovers it. (runtime.Goexit would not do: iter.Pull
// re-raises it in the goroutine that called stop.)
type procKilled struct{}

// Sleep suspends the calling proc for d of virtual time. Zero is allowed and
// acts as a yield point ordered after already-scheduled same-time events.
// Negative d panics.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	s := p.s
	until := s.now.Add(d)
	if s.driving && until <= s.limit && !p.wakeScheduled {
		if at, ok := s.queue.peek(); !ok || until < at {
			// Nothing is due before the wake this sleep would push, so the
			// drive loop would pop it straight back and resume this proc.
			// Skip the queue and the two switches; the wake still takes its
			// sequence number, so every later event keeps the (at, born, seq)
			// it would have had, and it counts as one event created and
			// processed.
			s.seq++
			s.counts.ShortCut++
			s.now = until
			return
		}
	}
	s.wakeAt(until, p)
	p.park(parkSleep, int64(d), int64(until))
}

// startDrive begins a drive loop, enforcing the re-entrancy contract: a
// drive may not start while another is on the stack (an event callback
// calling Run) or after a previous drive has drained the queue.
func (s *Scheduler) startDrive(limit Time) {
	if s.group != nil && !s.windowing {
		panic("sim: scheduler belongs to a multi-shard group; drive it with ShardGroup.Run")
	}
	if s.driving {
		panic("sim: drive re-entered from within a drive")
	}
	if s.running {
		panic("sim: Run called twice")
	}
	s.driving = true
	s.limit = limit
}

// endDrive finishes a drive loop; drained drives are terminal and release
// every coroutine: back to the arena when the drive is clean (every proc
// finished), stopped otherwise, those of still-parked procs included. The
// public drives defer it, so a panic unwinding out of a proc or an event
// callback ends the drive the same way, as a dead one.
func (s *Scheduler) endDrive(drained, clean bool) {
	s.driving = false
	if drained {
		s.running = true
		s.release(clean)
	}
}

// dispatch fires one popped event: it resumes the target proc or calls the
// handler. The event is recycled first (into locals), so handlers and
// resumed procs can immediately reuse it for new events. A wake whose
// incarnation is gone — the proc finished and its Proc now carries a newer
// one — is dropped, as a wake for a finished proc not yet reused is by
// resumeProc.
func (s *Scheduler) dispatch(e *event) {
	if e.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = e.at
	s.counts.Popped++
	if e.proc != nil {
		p, id := e.proc, e.op
		s.recycle(e)
		if p.id == id {
			s.resumeProc(p)
		}
		return
	}
	h, op := e.h, e.op
	s.recycle(e)
	h.Fire(op)
}

// drive dispatches the queued events at or before limit, in order, until
// none is left: the loop of every drive.
func (s *Scheduler) drive(limit Time) {
	for e := s.queue.pop(limit); e != nil; e = s.queue.pop(limit) {
		s.dispatch(e)
	}
}

// deadlock builds the drive result: nil when every proc finished, a
// *DeadlockError naming the parked procs otherwise. Names and reasons are
// formatted here, lazily — never on the start or park fast paths.
func (s *Scheduler) deadlock() error {
	if s.live == 0 {
		return nil
	}
	blocked := make([]string, 0, len(s.procs))
	for _, p := range s.procs {
		blocked = append(blocked, fmt.Sprintf("%s(#%d): %s", p.label(), p.id, p.parkReason()))
	}
	slices.Sort(blocked)
	return &DeadlockError{Now: s.now, Blocked: blocked}
}

// Run drives the simulation until the event queue drains. It returns nil if
// every proc has finished, and a *DeadlockError if live procs remain parked
// with no event able to wake them. Run may be called exactly once, except
// that it may follow partial runUntil drives to finish the simulation;
// calling it from within an event callback panics.
func (s *Scheduler) Run() error {
	s.startDrive(maxTime)
	clean := false // what a panic unwinding through the loop leaves
	defer func() { s.endDrive(true, clean) }()
	s.drive(maxTime)
	clean = s.live == 0
	return s.deadlock()
}

// runUntil drives the simulation until the clock would pass t or the queue
// drains. Events at exactly t still fire. It reports whether the queue
// drained (all work done). runUntil may be called repeatedly to drive the
// simulation incrementally, and a final Run may finish the drive;
// once any drive has drained the queue, all further drives panic, as does
// re-entering a drive from an event callback.
func (s *Scheduler) runUntil(t Time) bool {
	s.startDrive(t)
	// What a panic unwinding through the loop leaves: a terminal, dead drive.
	drained, clean := true, false
	defer func() { s.endDrive(drained, clean) }()
	s.drive(t)
	drained, clean = s.queue.n == 0, s.live == 0
	return drained
}

// timeNowUnixNano is the kernel's one wall-clock read: only the shard
// group's per-shard window timing (shard.go) consults the wall clock, and
// only through it. The samples feed ShardStats.ActualNS and trace spans,
// never the simulation itself.
var timeNowUnixNano = func() int64 { return time.Now().UnixNano() }

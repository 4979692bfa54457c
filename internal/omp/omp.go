// Package omp provides OpenMP-like fork/join helpers over the simulation
// kernel: one-shot parallel regions and persistent thread teams with
// barriers, placed on the machine model so oversubscription and socket
// effects apply. It packages the idiom the benchmarks and examples use for
// "threads compute, then each contributes its partition", and it is the only
// way they fork threads.
//
// Thread bodies are sim.Thread values: a struct built once per cell whose
// Thread method reads the thread index and the fork's inputs from its
// fields, and whose ThreadName is formatted only for deadlock diagnostics.
// One body serves every member and every fork, so a region or team step
// allocates nothing.
package omp

import (
	"fmt"

	"partmb/internal/cluster"
	"partmb/internal/noise"
	"partmb/internal/sim"
)

// Func adapts a func to a sim.Thread whose thread t is named "omp/<t>". A
// func that captures nothing converts without allocating; one built per
// fork costs its closure, so hot paths use a struct body instead.
type Func func(tp *sim.Proc, t int)

func (f Func) Thread(tp *sim.Proc, t int) { f(tp, t) }
func (f Func) ThreadName(t int) string    { return fmt.Sprintf("omp/%d", t) }

// Region forks n threads from p, thread t running body.Thread(tp, t), and
// blocks p until all have returned — a `#pragma omp parallel`.
func Region(p *sim.Proc, n int, body sim.Thread) {
	if n <= 0 {
		panic("omp: region needs at least one thread")
	}
	p.ForkJoin(body, n)
}

// Compute is the body of a noisy compute phase over the threads of a
// placement: thread t sleeps Times[t] and then runs then.Thread(tp, t)
// (typically Pready). Threads take then's names. Build one per cell; each
// Draw refills Times in place.
type Compute struct {
	// Times[t] is thread t's effective compute time in the current region.
	Times []sim.Duration
	place *cluster.Placement
	noise *noise.Model
	base  sim.Duration
	then  sim.Thread
}

// NewCompute returns the compute body for the threads of place, each
// computing base before noise and placement. then is each thread's
// continuation after computing.
func NewCompute(place *cluster.Placement, nm *noise.Model, base sim.Duration, then sim.Thread) *Compute {
	return &Compute{Times: make([]sim.Duration, place.Threads()), place: place, noise: nm, base: base, then: then}
}

// Draw fills Times for a new region: one noise draw per thread, stretched
// by the thread's placement.
func (c *Compute) Draw() {
	c.noise.Draw(c.Times, c.base)
	for t, d := range c.Times {
		c.Times[t] = c.place.ComputeTime(t, d)
	}
}

func (c *Compute) Thread(tp *sim.Proc, t int) {
	tp.Sleep(c.Times[t])
	c.then.Thread(tp, t)
}

func (c *Compute) ThreadName(t int) string { return c.then.ThreadName(t) }

// ComputeRegion runs one noisy compute phase as a Region of c — the paper's
// benchmark inner loop as one call — after drawing its times. It returns
// c.Times, the per-thread effective compute durations, valid until the
// next Draw.
func ComputeRegion(p *sim.Proc, c *Compute) []sim.Duration {
	c.Draw()
	Region(p, len(c.Times), c)
	return c.Times
}

// Team is a persistent set of worker threads driven through a fixed number
// of steps — the long-lived parallel region the stencil motifs use. Each
// Step releases every worker to run the body once and waits for all of
// them; after the last step the workers return.
type Team struct {
	steps, stepped int
	body           sim.Thread
	start, done    *sim.Barrier
}

// NewTeam forks n workers on the scheduler that run body once per Step, for
// steps steps. Worker t is body's thread t and takes its name.
func NewTeam(s *sim.Scheduler, n, steps int, body sim.Thread) *Team {
	if n <= 0 {
		panic("omp: team needs at least one thread")
	}
	if body == nil {
		panic("omp: nil team body")
	}
	tm := &Team{
		steps: steps,
		body:  body,
		start: sim.NewBarrier(n + 1),
		done:  sim.NewBarrier(n + 1),
	}
	s.Fork((*workers)(tm), n)
	return tm
}

// Step runs the body once on every worker and blocks until all finish.
// Stepping a team past its steps panics: its workers have returned.
func (tm *Team) Step(p *sim.Proc) {
	if tm.stepped == tm.steps {
		panic("omp: Step past the team's last step")
	}
	tm.stepped++
	tm.start.Await(p)
	tm.done.Await(p)
}

// workers is the Team as its workers' body: a distinct type, so Team's own
// method set stays Step.
type workers Team

func (w *workers) Thread(tp *sim.Proc, t int) {
	for st := 0; st < w.steps; st++ {
		w.start.Await(tp)
		w.body.Thread(tp, t)
		w.done.Await(tp)
	}
}

func (w *workers) ThreadName(t int) string { return w.body.ThreadName(t) }

// Package prof implements an mpiP-style MPI profiler for the simulated
// runtime: per-rank accounting of virtual time spent inside MPI calls,
// aggregated into the application-time / MPI-time report the paper uses to
// project SNAP's partitioned-communication speedup (§4.8).
//
// mpiP intercepts MPI calls at link time; here the application threads its
// calls through Rank.Call, which measures the virtual-time span of the call
// on the calling proc.
package prof

import (
	"fmt"
	"sort"

	"partmb/internal/sim"
)

// Profiler accumulates per-rank MPI timing.
type Profiler struct {
	ranks map[int]*Rank
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{ranks: make(map[int]*Rank)}
}

// Rank returns (creating if needed) the accumulator for one rank.
func (pf *Profiler) Rank(id int) *Rank {
	r, ok := pf.ranks[id]
	if !ok {
		r = &Rank{id: id, byCall: make(map[string]*CallStats)}
		pf.ranks[id] = r
	}
	return r
}

// Rank accumulates one process's profile.
type Rank struct {
	id       int
	appStart sim.Time
	appEnd   sim.Time
	started  bool
	byCall   map[string]*CallStats
}

// CallStats aggregates one MPI entry point on one rank.
type CallStats struct {
	Name  string
	Count int64
	Time  sim.Duration
}

// Begin marks the start of the application's measured region.
func (r *Rank) Begin(p *sim.Proc) {
	r.appStart = p.Now()
	r.started = true
}

// End marks the end of the application's measured region.
func (r *Rank) End(p *sim.Proc) {
	if !r.started {
		panic("prof: End before Begin")
	}
	r.appEnd = p.Now()
}

// Call measures fn as one invocation of the named MPI entry point.
func (r *Rank) Call(p *sim.Proc, name string, fn func()) {
	start := p.Now()
	fn()
	cs, ok := r.byCall[name]
	if !ok {
		cs = &CallStats{Name: name}
		r.byCall[name] = cs
	}
	cs.Count++
	cs.Time += p.Now().Sub(start)
}

// appTime returns the measured region's span.
func (r *Rank) appTime() sim.Duration {
	if !r.started || r.appEnd < r.appStart {
		return 0
	}
	return r.appEnd.Sub(r.appStart)
}

// mpiTime returns the total time inside MPI calls.
func (r *Rank) mpiTime() sim.Duration {
	var sum sim.Duration
	for _, cs := range r.byCall {
		sum += cs.Time
	}
	return sum
}

// Report is the aggregate profile across ranks, mirroring mpiP's header
// lines ("AppTime", "MPITime", "MPI%").
type Report struct {
	Ranks int
	// AppTime is the sum of per-rank application times (mpiP convention).
	AppTime sim.Duration
	// MPITime is the sum of per-rank MPI times.
	MPITime sim.Duration
	// Calls aggregates each entry point across ranks, sorted by time
	// descending.
	Calls []CallStats
}

// MPIFraction returns MPITime/AppTime in [0, 1].
func (rep *Report) MPIFraction() float64 {
	if rep.AppTime <= 0 {
		return 0
	}
	return float64(rep.MPITime) / float64(rep.AppTime)
}

// String renders the report header like mpiP's output.
func (rep *Report) String() string {
	s := fmt.Sprintf("@ ranks=%d AppTime=%v MPITime=%v MPI%%=%.2f\n",
		rep.Ranks, rep.AppTime, rep.MPITime, 100*rep.MPIFraction())
	for _, cs := range rep.Calls {
		s += fmt.Sprintf("  %-12s calls=%-8d time=%v\n", cs.Name, cs.Count, cs.Time)
	}
	return s
}

// Report aggregates all ranks.
func (pf *Profiler) Report() Report {
	rep := Report{Ranks: len(pf.ranks)}
	agg := make(map[string]*CallStats)
	for _, r := range pf.ranks {
		rep.AppTime += r.appTime()
		rep.MPITime += r.mpiTime()
		for name, cs := range r.byCall {
			a, ok := agg[name]
			if !ok {
				a = &CallStats{Name: name}
				agg[name] = a
			}
			a.Count += cs.Count
			a.Time += cs.Time
		}
	}
	for _, a := range agg {
		rep.Calls = append(rep.Calls, *a)
	}
	sort.Slice(rep.Calls, func(i, j int) bool {
		if rep.Calls[i].Time != rep.Calls[j].Time {
			return rep.Calls[i].Time > rep.Calls[j].Time
		}
		return rep.Calls[i].Name < rep.Calls[j].Name
	})
	return rep
}

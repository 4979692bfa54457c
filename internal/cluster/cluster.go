// Package cluster models the compute-node hardware the benchmarks run on:
// sockets, cores, thread placement, oversubscription, and the cross-socket
// penalties that shape the paper's 32-partition results.
//
// The default parameters describe a Niagara-like node (the paper's testbed):
// two sockets of twenty 2.4 GHz Skylake cores, with the NIC attached to
// socket 0.
package cluster

import (
	"fmt"

	"partmb/internal/sim"
)

// Machine describes one compute node.
type Machine struct {
	// Sockets is the number of CPU sockets (NUMA domains).
	Sockets int
	// CoresPerSocket is the number of physical cores per socket.
	CoresPerSocket int
	// NICSocket is the socket the network adapter is attached to. Threads
	// running on other sockets pay CrossSocketPenalty per message injection.
	NICSocket int
	// CrossSocketPenalty is the extra cost of initiating a network transfer
	// (or touching NIC doorbells) from a core on a non-NIC socket.
	CrossSocketPenalty sim.Duration
	// OversubscribedSlowdown multiplies compute time for each extra thread
	// sharing a core beyond the first. Two threads per core means compute
	// takes 2*OversubscribedSlowdown/2 ... in practice compute scales with
	// the number of threads sharing the core.
	// (Kept as an explicit knob so ablations can disable it.)
	OversubscribedSlowdown float64
}

// Niagara returns the machine model for one Niagara node, the paper's
// platform: 2 sockets x 20 cores, NIC on socket 0.
func Niagara() *Machine {
	return &Machine{
		Sockets:                2,
		CoresPerSocket:         20,
		NICSocket:              0,
		CrossSocketPenalty:     1500 * sim.Nanosecond,
		OversubscribedSlowdown: 1.0,
	}
}

// Epyc returns a machine model for a dual-socket 64-core EPYC-class node
// (many NUMA domains folded into the two-socket abstraction): useful for
// exploring partition-count guidance on wider nodes than the paper's.
func Epyc() *Machine {
	return &Machine{
		Sockets:                2,
		CoresPerSocket:         64,
		NICSocket:              0,
		CrossSocketPenalty:     1200 * sim.Nanosecond,
		OversubscribedSlowdown: 1.0,
	}
}

// Validate checks the machine description for consistency.
func (m *Machine) Validate() error {
	if m.Sockets <= 0 {
		return fmt.Errorf("cluster: Sockets = %d, must be positive", m.Sockets)
	}
	if m.CoresPerSocket <= 0 {
		return fmt.Errorf("cluster: CoresPerSocket = %d, must be positive", m.CoresPerSocket)
	}
	if m.NICSocket < 0 || m.NICSocket >= m.Sockets {
		return fmt.Errorf("cluster: NICSocket = %d out of range [0,%d)", m.NICSocket, m.Sockets)
	}
	if m.CrossSocketPenalty < 0 {
		return fmt.Errorf("cluster: negative CrossSocketPenalty")
	}
	if m.OversubscribedSlowdown <= 0 {
		return fmt.Errorf("cluster: OversubscribedSlowdown must be positive")
	}
	return nil
}

// TotalCores returns the number of physical cores on the node.
func (m *Machine) TotalCores() int { return m.Sockets * m.CoresPerSocket }

// Policy selects how thread indices map to cores.
type Policy int

const (
	// Compact pins thread i to core i (socket-major): threads fill socket
	// 0 first — the paper's OpenMP binding, and why its 32-partition runs
	// spill onto socket 1.
	Compact Policy = iota
	// Scatter round-robins threads across sockets (OMP_PROC_BIND=spread):
	// socket load balances, but half the threads sit away from the NIC at
	// every thread count.
	Scatter
)

// String returns "compact" or "scatter".
func (p Policy) String() string {
	switch p {
	case Compact:
		return "compact"
	case Scatter:
		return "scatter"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Placement maps thread indices to cores. Threads beyond the core count
// wrap around and oversubscribe cores.
type Placement struct {
	machine *Machine
	threads int
	policy  Policy
}

// Place returns a Placement of n threads on machine m using compact pinning.
func Place(m *Machine, n int) *Placement {
	return PlaceWith(m, n, Compact)
}

// PlaceWith returns a Placement using the given policy.
func PlaceWith(m *Machine, n int, policy Policy) *Placement {
	if n <= 0 {
		panic("cluster: placement needs at least one thread")
	}
	return &Placement{machine: m, threads: n, policy: policy}
}

// Threads returns the number of placed threads.
func (p *Placement) Threads() int { return p.threads }

// core returns the core index a thread runs on.
func (p *Placement) core(thread int) int {
	slot := thread % p.machine.TotalCores()
	if p.policy == Compact {
		return slot
	}
	// Scatter: alternate sockets, walking each socket's cores in order.
	socket := slot % p.machine.Sockets
	within := slot / p.machine.Sockets
	return socket*p.machine.CoresPerSocket + within
}

// socket returns the socket a thread's core belongs to.
func (p *Placement) socket(thread int) int {
	return p.core(thread) / p.machine.CoresPerSocket
}

// onNICSocket reports whether a thread runs on the socket that owns the NIC.
func (p *Placement) onNICSocket(thread int) bool {
	return p.socket(thread) == p.machine.NICSocket
}

// InjectionPenalty returns the extra per-message cost a thread pays to start
// a network transfer, zero when the thread shares a socket with the NIC.
func (p *Placement) InjectionPenalty(thread int) sim.Duration {
	if p.onNICSocket(thread) {
		return 0
	}
	return p.machine.CrossSocketPenalty
}

// shareFactor returns how many threads share this thread's core (>= 1).
func (p *Placement) shareFactor(thread int) int {
	total := p.machine.TotalCores()
	if p.threads <= total {
		return 1
	}
	// Threads wrap slots modulo the core count under either policy, so a
	// core hosts one thread per full wrap that reaches its slot.
	slot := thread % total
	n := (p.threads - slot + total - 1) / total
	if n < 1 {
		n = 1
	}
	return n
}

// ComputeTime returns the effective duration of a compute phase of nominal
// length base on the given thread, accounting for core sharing when the node
// is oversubscribed.
func (p *Placement) ComputeTime(thread int, base sim.Duration) sim.Duration {
	share := p.shareFactor(thread)
	if share <= 1 {
		return base
	}
	scaled := float64(base) * float64(share) * p.machine.OversubscribedSlowdown
	return sim.Duration(scaled)
}

// Package netsim models the interconnect: per-message software overheads,
// eager/rendezvous protocol selection, serialized NIC injection, link
// latency, and link bandwidth.
//
// The model is LogGP-flavoured. Each rank owns a NIC. Sending a message
// occupies the sender's injection engine for
//
//	o_send + extra + size/bandwidth
//
// where extra carries situational costs (cross-socket doorbell writes, cold
// cache DRAM fetches of the payload). Injections queue FIFO, which is what
// saturates the link for large messages and produces the perceived-bandwidth
// decline and availability drop-off of the paper — those effects are
// emergent, not special-cased. The last byte then arrives after the wire
// latency, and the receiving NIC spends o_recv of serialized processing per
// message before delivery.
//
// Messages above the eager threshold pay a rendezvous handshake (RTS/CTS,
// one round trip) before data can flow, and cannot start until the receive
// is posted.
//
// Defaults approximate the paper's testbed: EDR InfiniBand (~100 Gb/s) with
// a single switch between any two ranks.
package netsim

import (
	"fmt"

	"partmb/internal/sim"
)

// Params holds the interconnect cost parameters.
type Params struct {
	// Latency is the one-way wire+switch latency (last bit in to first bit
	// out at the far NIC).
	Latency sim.Duration
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
	// SendOverhead is the per-message sender-side software cost: descriptor
	// setup, matching bookkeeping, doorbell.
	SendOverhead sim.Duration
	// RecvOverhead is the per-message receiver-side software cost: CQ
	// polling, matching, completion.
	RecvOverhead sim.Duration
	// EagerThreshold is the largest message sent eagerly; larger messages
	// use a rendezvous protocol.
	EagerThreshold int64
	// RendezvousSetup is the extra software cost of the RTS/CTS exchange on
	// top of one round trip of latency.
	RendezvousSetup sim.Duration
}

// EDR returns parameters approximating one EDR InfiniBand hop as on the
// paper's Niagara cluster (single switch within a Dragonfly+ wing).
func EDR() *Params {
	return &Params{
		Latency:         900 * sim.Nanosecond,
		Bandwidth:       12e9, // ~96 Gb/s effective of the 100 Gb/s line rate
		SendOverhead:    500 * sim.Nanosecond,
		RecvOverhead:    300 * sim.Nanosecond,
		EagerThreshold:  16 << 10,
		RendezvousSetup: 400 * sim.Nanosecond,
	}
}

// HDR returns parameters approximating one HDR InfiniBand hop (200 Gb/s
// generation): double EDR's bandwidth with slightly lower latency, for
// exploring how the paper's crossovers move on newer fabrics.
func HDR() *Params {
	return &Params{
		Latency:         800 * sim.Nanosecond,
		Bandwidth:       24e9,
		SendOverhead:    450 * sim.Nanosecond,
		RecvOverhead:    280 * sim.Nanosecond,
		EagerThreshold:  16 << 10,
		RendezvousSetup: 350 * sim.Nanosecond,
	}
}

// Validate checks the parameters for consistency.
func (p *Params) Validate() error {
	if p.Latency < 0 || p.SendOverhead < 0 || p.RecvOverhead < 0 || p.RendezvousSetup < 0 {
		return fmt.Errorf("netsim: negative cost parameter")
	}
	if p.Bandwidth <= 0 {
		return fmt.Errorf("netsim: Bandwidth must be positive")
	}
	if p.EagerThreshold < 0 {
		return fmt.Errorf("netsim: negative EagerThreshold")
	}
	return nil
}

// serializationTime returns size/bandwidth as a duration.
func (p *Params) serializationTime(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.Duration(float64(size) / p.Bandwidth * 1e9)
}

// Eager reports whether a message of the given size is sent eagerly.
func (p *Params) Eager(size int64) bool { return size <= p.EagerThreshold }

// Stats accumulates NIC traffic counters.
type Stats struct {
	Messages int64
	Bytes    int64
	// TxBusy is the total time the injection engine was occupied.
	TxBusy sim.Duration
}

// NIC is the per-rank network interface. All methods must be called from
// simulation context (a proc or an event callback); the kernel's one-runner
// guarantee makes them safe without locks.
type NIC struct {
	params *Params
	txBusy sim.Time
	rxBusy sim.Time
	stats  Stats
}

// NewNIC returns a NIC using the given cost parameters.
func NewNIC(params *Params) *NIC {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &NIC{params: params}
}

// Stats returns a copy of the traffic counters.
func (n *NIC) Stats() Stats { return n.stats }

// Inject models queueing a message of the given size for transmission at
// time now, with extra per-message cost (cross-socket penalty, cold-cache
// payload fetch). It returns when the local injection completes (txDone,
// when the sending CPU could observe local completion) and when the last
// byte arrives at the remote NIC (arrive).
func (n *NIC) Inject(now sim.Time, size int64, extra sim.Duration) (txDone, arrive sim.Time) {
	return n.InjectLat(now, size, extra, n.params.Latency)
}

// InjectLat is Inject with an explicit one-way wire latency, used when a
// Topology makes latency pair-dependent.
func (n *NIC) InjectLat(now sim.Time, size int64, extra, oneWay sim.Duration) (txDone, arrive sim.Time) {
	if size < 0 {
		panic("netsim: negative message size")
	}
	if oneWay < 0 {
		panic("netsim: negative latency")
	}
	start := now
	if n.txBusy > start {
		start = n.txBusy
	}
	cost := n.params.SendOverhead + extra + n.params.serializationTime(size)
	txDone = start.Add(cost)
	n.txBusy = txDone
	n.stats.Messages++
	n.stats.Bytes += size
	n.stats.TxBusy += cost
	return txDone, txDone.Add(oneWay)
}

// Deliver models receiver-side processing of a message whose last byte
// arrived at time arrive; it returns the time the payload is visible to the
// receiving process. Per-message processing is serialized on the receiving
// NIC.
func (n *NIC) Deliver(arrive sim.Time) sim.Time {
	start := arrive
	if n.rxBusy > start {
		start = n.rxBusy
	}
	done := start.Add(n.params.RecvOverhead)
	n.rxBusy = done
	return done
}

// SmallMessageLatency returns the model's pre-posted eager half-round-trip
// floor: o_send + L + o_recv (excluding MPI-layer call costs).
func (p *Params) SmallMessageLatency() sim.Duration {
	return p.SendOverhead + p.Latency + p.RecvOverhead
}

// MaxMessageRate returns the injection-rate ceiling for zero-byte messages,
// in messages per second (bounded by the per-message send overhead).
func (p *Params) MaxMessageRate() float64 {
	if p.SendOverhead <= 0 {
		return 0
	}
	return 1e9 / float64(p.SendOverhead)
}

// RendezvousLatency returns the pre-posted rendezvous latency for a message
// of the given size: RTS and CTS control flights plus the payload flight.
func (p *Params) RendezvousLatency(size int64) sim.Duration {
	control := p.SendOverhead + p.Latency + p.RecvOverhead
	data := p.RendezvousSetup + p.SendOverhead + p.serializationTime(size) + p.Latency + p.RecvOverhead
	return 2*control + data
}

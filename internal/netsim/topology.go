package netsim

import (
	"fmt"

	"partmb/internal/sim"
)

// Topology maps a rank pair to the wire latency between their nodes. The
// paper's point-to-point experiments stay inside one Dragonfly+ wing ("only
// a single switch between any two processes"), which Uniform models; the
// larger SNAP runs necessarily cross wings, which DragonflyPlus models with
// an extra per-hop latency.
type Topology interface {
	// Latency returns the one-way latency between two ranks' nodes.
	Latency(src, dst int) sim.Duration
	// Describe returns a short human-readable description.
	Describe() string
}

// Uniform is a single-switch topology: every pair sees the same latency.
type Uniform struct {
	// L is the one-way latency between any two distinct ranks.
	L sim.Duration
}

// Latency implements Topology. Self-sends stay in the node (loopback
// through the adapter): same cost, as on real adapters.
func (u Uniform) Latency(src, dst int) sim.Duration { return u.L }

// Describe implements Topology.
func (u Uniform) Describe() string {
	return fmt.Sprintf("uniform single-switch, %v", u.L)
}

// DragonflyPlus groups nodes into wings of WingSize; traffic inside a wing
// crosses one leaf switch (Intra), traffic between wings adds the
// spine/global hops (Inter > Intra).
type DragonflyPlus struct {
	// WingSize is the number of ranks per wing (Niagara wings hold
	// hundreds of nodes; experiments here typically use smaller wings to
	// exercise the boundary).
	WingSize int
	// Intra is the one-way latency within a wing.
	Intra sim.Duration
	// Inter is the one-way latency between wings.
	Inter sim.Duration
}

// NewDragonflyPlus validates and builds the topology.
func NewDragonflyPlus(wingSize int, intra, inter sim.Duration) DragonflyPlus {
	if wingSize <= 0 {
		panic("netsim: wing size must be positive")
	}
	if intra < 0 || inter < intra {
		panic("netsim: need 0 <= intra <= inter latency")
	}
	return DragonflyPlus{WingSize: wingSize, Intra: intra, Inter: inter}
}

// wing returns the wing a rank belongs to.
func (d DragonflyPlus) wing(rank int) int { return rank / d.WingSize }

// Latency implements Topology.
func (d DragonflyPlus) Latency(src, dst int) sim.Duration {
	if d.wing(src) == d.wing(dst) {
		return d.Intra
	}
	return d.Inter
}

// Describe implements Topology.
func (d DragonflyPlus) Describe() string {
	return fmt.Sprintf("dragonfly+ wings of %d, intra %v, inter %v", d.WingSize, d.Intra, d.Inter)
}

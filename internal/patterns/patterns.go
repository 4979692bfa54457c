// Package patterns implements communication motifs modelled after the Ember
// suite from SST: the two the paper evaluates (§3.2), a 3-D wavefront sweep
// (Sweep3D, the KBA decomposition used by SNAP/PARTISN) and a 7-point 3-D
// halo exchange (Halo3D), plus a 5-point 2-D halo exchange (Halo2D) and a
// fan-in (Incast). Each motif runs in the paper's three threading modes — a
// single-threaded MPI point-to-point baseline, multi-threaded point-to-point
// under MPI_THREAD_MULTIPLE, and MPI Partitioned — and the halo exchanges
// also in a fourth, persistent point-to-point (Persistent). Each reports
// communication throughput. All four run through one frame (frame.go):
// build the world, place and seed every rank, time from the opening
// barrier to the closing one, total the NIC counters.
//
// Scaling follows the paper's setup (§4.6): data is weak-scaled (each thread
// contributes BytesPerThread to every boundary message, so messages grow
// with thread count) while each thread performs the same compute amount.
package patterns

import (
	"fmt"
	"strings"

	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Mode selects the threading/communication strategy of a motif run.
type Mode int

const (
	// Single: one thread computes and exchanges whole messages with plain
	// point-to-point.
	Single Mode = iota
	// Multi: every thread exchanges its own sub-message with point-to-point
	// under MPI_THREAD_MULTIPLE.
	Multi
	// Partitioned: threads contribute partitions of persistent partitioned
	// transfers.
	Partitioned
	// Persistent: one thread exchanges whole messages through persistent
	// point-to-point requests (MPI_Send_init/MPI_Recv_init) — the classic
	// pre-partitioned baseline the Collom et al. follow-up compares
	// partitioned communication against. Halo3D and Halo2D only.
	Persistent
)

// String returns the mode name used in reports.
func (m Mode) String() string {
	switch m {
	case Single:
		return "single"
	case Multi:
		return "multi"
	case Partitioned:
		return "partitioned"
	case Persistent:
		return "persistent"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a mode name.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "single", "pt2pt":
		return Single, nil
	case "multi", "multiple", "threaded":
		return Multi, nil
	case "partitioned", "part":
		return Partitioned, nil
	case "persistent", "pers":
		return Persistent, nil
	}
	return Single, fmt.Errorf("patterns: unknown mode %q (want single|multi|partitioned|persistent)", s)
}

// Modes lists the paper's modes in presentation order. Persistent is a
// follow-up comparison point and deliberately not part of the figure sweeps.
func Modes() []Mode { return []Mode{Single, Multi, Partitioned} }

// Decompose3D factors n into the most cubic grid nx >= ny >= nz with
// nx*ny*nz == n, used to map a flat -ranks count onto a Halo3D torus.
func Decompose3D(n int) (nx, ny, nz int) {
	if n <= 0 {
		return 0, 0, 0
	}
	best := [3]int{n, 1, 1}
	for c := 1; c*c*c <= n; c++ {
		if n%c != 0 {
			continue
		}
		m := n / c
		for b := c; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			a := m / b
			// Later candidates are strictly more cubic (larger minimum edge,
			// then smaller maximum edge).
			if c > best[2] || (c == best[2] && a < best[0]) {
				best = [3]int{a, b, c}
			}
		}
	}
	return best[0], best[1], best[2]
}

// Decompose2D factors n into the most square grid px >= py with px*py == n,
// used to map a flat -ranks count onto a Sweep3D process grid.
func Decompose2D(n int) (px, py int) {
	if n <= 0 {
		return 0, 0
	}
	for q := 1; q*q <= n; q++ {
		if n%q == 0 {
			px, py = n/q, q
		}
	}
	return px, py
}

// Result reports one motif run.
type Result struct {
	// Elapsed is the virtual time from rank 0 leaving the barrier after
	// set-up to the last rank leaving the closing barrier.
	Elapsed sim.Duration
	// PayloadBytes is the total application payload moved across all ranks
	// (control traffic excluded).
	PayloadBytes int64
	// Messages is the total number of network messages injected, including
	// protocol control messages.
	Messages int64
	// CI is the confidence estimate of Throughput on adaptive runs (nil on
	// the fixed path, keeping fixed-path JSON byte-identical). The Elapsed/
	// PayloadBytes/Messages fields describe the first draw.
	CI *stats.Estimate `json:",omitempty"`
	// Shard carries the sharded kernel's execution counters when the run
	// used a multi-shard group (nil on the sequential kernel and on
	// disk-cache hits). It is host-side telemetry — windows, events,
	// cross-shard deliveries, host time, mean imbalance — and deliberately
	// excluded from JSON: the motif result proper is byte-identical at any
	// shard count or worker count, and cache entries and goldens must stay
	// that way.
	Shard *sim.ShardStats `json:"-"`
}

// SimElapsed returns the motif's virtual runtime — the cell-level "virtual
// sim time" the observability journal records (see internal/obs.SimTimed).
func (r *Result) SimElapsed() sim.Duration { return r.Elapsed }

// SampleStats implements the observability layer's Sampled interface (see
// internal/obs). Fixed-path results report n == 0.
func (r *Result) SampleStats() (n int, relCI float64, reason string) {
	if r.CI == nil {
		return 0, 0, ""
	}
	return r.CI.N, r.CI.RelHalfWidth, r.CI.Reason
}

// ShardRun implements the observability layer's Sharded interface (see
// internal/obs): it exposes the sharded-execution counters, or nil when the
// run used the sequential kernel.
func (r *Result) ShardRun() *sim.ShardStats { return r.Shard }

// Throughput returns application bytes moved per second of virtual time.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.PayloadBytes) / r.Elapsed.Seconds()
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("elapsed=%v payload=%.1fMiB msgs=%d throughput=%.3fGB/s",
		r.Elapsed, float64(r.PayloadBytes)/(1<<20), r.Messages, r.Throughput()/1e9)
}

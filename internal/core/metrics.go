// Package core implements the paper's micro-benchmark suite for MPI
// partitioned point-to-point communication: the four metrics of §3.1
// (Overhead, Perceived Bandwidth, Application Availability, Early-Bird
// Communication), the instrumented two-process harness that measures them
// under configurable message size, partition count, compute amount, noise
// model and cache state, and the sweep driver the figure generators use.
package core

import "partmb/internal/sim"

// Overhead implements Eq. 1: t_part / t_pt2pt, the slowdown of sending n
// partitions relative to one send of the same total size. Values near 1 mean
// partitioning is free; large values mean per-message costs dominate.
func Overhead(tPart, tPt2Pt sim.Duration) float64 {
	if tPt2Pt <= 0 {
		panic("core: non-positive t_pt2pt")
	}
	return float64(tPart) / float64(tPt2Pt)
}

// PerceivedBandwidth implements Eq. 2: m / t_part_last in bytes per second —
// the bandwidth a single-send model would need to move the whole message in
// the time the *last* partition took. It exceeds physical link bandwidth
// when earlier partitions were sent during compute.
func PerceivedBandwidth(messageBytes int64, tPartLast sim.Duration) float64 {
	if tPartLast <= 0 {
		panic("core: non-positive t_part_last")
	}
	return float64(messageBytes) / tPartLast.Seconds()
}

// Availability implements Eq. 3: 1 - t_after_join/t_pt2pt — the fraction of
// the single-send communication time freed for computation because
// partitioned communication finished (mostly) before the thread join. It can
// go negative when residual communication after the join exceeds a full
// single send.
func Availability(tAfterJoin, tPt2Pt sim.Duration) float64 {
	if tPt2Pt <= 0 {
		panic("core: non-positive t_pt2pt")
	}
	return 1 - float64(tAfterJoin)/float64(tPt2Pt)
}

// EarlyBirdPct implements Eq. 4: 100 * t_before_join/t_part — the percentage
// of partitioned communication that happened before the equivalent
// single-send thread join.
func EarlyBirdPct(tBeforeJoin, tPart sim.Duration) float64 {
	if tPart <= 0 {
		panic("core: non-positive t_part")
	}
	return 100 * float64(tBeforeJoin) / float64(tPart)
}

// splitAtJoin decomposes the partitioned communication interval
// [firstReady, lastArrive] around the equivalent single-send join instant:
// before is the portion of communication preceding the join, after the
// portion following it. Either may be zero; they sum to t_part.
func splitAtJoin(firstReady, lastArrive, join sim.Time) (before, after sim.Duration) {
	if lastArrive < firstReady {
		panic("core: lastArrive before firstReady")
	}
	switch {
	case join <= firstReady:
		return 0, lastArrive.Sub(firstReady)
	case join >= lastArrive:
		return lastArrive.Sub(firstReady), 0
	default:
		return join.Sub(firstReady), lastArrive.Sub(join)
	}
}

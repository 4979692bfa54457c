package engine

// This file is the engine's dispatch order. The paper's sweeps grow
// geometrically in message size, so dispatched in index order the most
// expensive cells land last and leave every worker lane but one idle for the
// tail of the run. Sweep therefore decouples *dispatch order* from *result
// order*: given the caller's per-index cost function it dispatches
// longest-first (LPT, the classic 4/3-approximation for minimum-makespan
// list scheduling); without one it dispatches in index order. There is no
// other order and nothing selects between them.
//
// Everything observable except wall-clock time is order-independent:
// results return in index order, memoization and singleflight see the same
// key set, Stats.Runs/Hits match, and deterministic journals are
// byte-identical, because the multiset of (experiment, key, source,
// outcome) resolutions does not depend on which caller of a shared key
// arrives first.
//
// # Fail-fast determinism under out-of-order dispatch
//
// The old argument — "the minimal failing index is always dispatched before
// scheduling stops, because dispatch is in index order" — breaks under LPT:
// when index j fails, a smaller index i < j may not have been dispatched
// yet, and naively cancelling the sweep would report j on some runs and i
// on others, depending on worker interleaving. The runner therefore keeps
// the *failure bound*: the smallest index of any recorded failure.
//
//   - Indices above the bound are never newly dispatched, and running tasks
//     above the bound have their per-task contexts cancelled (fail-fast).
//   - Indices below the bound always dispatch, with contexts the engine
//     never cancels, and run to completion; if one fails, the bound
//     tightens to it.
//
// Invariant: every index smaller than the finally-reported failing index
// was dispatched with a context the engine never cancelled and ran to its
// natural (deterministic) outcome. Hence the reported error is the
// smallest-index real failure of the whole grid, under every cost function,
// every worker count, and every interleaving. Cancellation-class outcomes
// (context.Canceled/DeadlineExceeded) keep their PR-2 rank below real
// errors and are tracked under the same bound, so a cell that aborted
// because a sibling failed first can never mask the real failure.
// (Remaining caveat, present before this scheduler too: if a cell
// spontaneously returns a cancellation-class error of its own, a real
// failure at a larger index may or may not have been dispatched before the
// bound tightened; no experiment in this repository does that.)

import "sort"

// lptOrder returns the longest-predicted-first dispatch permutation for the
// given per-index costs: indices sorted by cost descending, ties broken by
// the smaller index — fully deterministic in the costs.
func lptOrder(costs []float64) []int {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := costs[order[a]], costs[order[b]]
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})
	return order
}

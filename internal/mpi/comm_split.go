package mpi

import (
	"cmp"
	"fmt"
	"slices"

	"partmb/internal/sim"
)

// Undefined is the MPI_UNDEFINED color: ranks passing it to Split receive
// no communicator (nil).
const Undefined = -1

// splitKey identifies one collective Split invocation on one communicator.
type splitKey struct {
	ctxBase int
	gen     int
}

// splitEntry is one rank's contribution to a split.
type splitEntry struct {
	world, color, key int
}

// splitState coordinates the members of one Split call.
type splitState struct {
	expected int
	entries  []splitEntry
	done     sim.Completion
	// results, filled when the last member arrives:
	groupOf map[int][]int // color -> member world ranks in (key, rank) order
	ctxOf   map[int]int   // color -> new context base
}

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by key (ties broken by old rank), the analogue
// of MPI_Comm_split. Ranks passing Undefined receive nil. Every member of
// the communicator must call Split, in the same collective order.
//
// The new communicator gets fresh matching contexts, so traffic on sibling
// communicators can reuse tags without interference.
func (c *Comm) Split(p *sim.Proc, color, key int) *Comm {
	if color < 0 && color != Undefined {
		panic(fmt.Sprintf("mpi: negative split color %d (use mpi.Undefined to opt out)", color))
	}
	if c.world.sharded() {
		// The split bookkeeping (shared entry list, one completion all
		// members park on) is inherently cross-shard mutable state.
		panic("mpi: Comm.Split requires a single-shard world")
	}
	// The color/key exchange is an allgather of a few bytes — charge it.
	c.allgather(p, 8)

	w := c.world
	gen := c.splitGen
	c.splitGen++
	sk := splitKey{ctxBase: c.ctxBase, gen: gen}
	st, ok := w.splits[sk]
	if !ok {
		st = &splitState{expected: c.size()}
		if w.splits == nil {
			w.splits = make(map[splitKey]*splitState)
		}
		w.splits[sk] = st
	}
	st.entries = append(st.entries, splitEntry{world: c.rank, color: color, key: key})
	if len(st.entries) == st.expected {
		st.resolve(w)
		delete(w.splits, sk)
		st.done.Fire(w.s)
	} else {
		st.done.Wait(p)
	}
	if color == Undefined {
		return nil
	}
	return &Comm{
		world:     w,
		rank:      c.rank,
		group:     st.groupOf[color],
		ctxBase:   st.ctxOf[color],
		placement: c.placement,
	}
}

// resolve computes the split's groups and allocates context blocks,
// deterministically: colors ascending, members ordered by (key, old world
// rank).
func (st *splitState) resolve(w *World) {
	byColor := make(map[int][]splitEntry)
	for _, e := range st.entries {
		if e.color == Undefined {
			continue
		}
		byColor[e.color] = append(byColor[e.color], e)
	}
	colors := make([]int, 0, len(byColor))
	for color := range byColor {
		colors = append(colors, color)
	}
	slices.Sort(colors)
	st.groupOf = make(map[int][]int, len(colors))
	st.ctxOf = make(map[int]int, len(colors))
	for _, color := range colors {
		members := byColor[color]
		slices.SortFunc(members, func(a, b splitEntry) int {
			if c := cmp.Compare(a.key, b.key); c != 0 {
				return c
			}
			return cmp.Compare(a.world, b.world)
		})
		group := make([]int, len(members))
		for i, m := range members {
			group[i] = m.world
		}
		st.groupOf[color] = group
		st.ctxOf[color] = w.nextCtx
		w.nextCtx += ctxStride
	}
}

package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventQueueHold times the event queue alone at a fixed depth in
// the classic hold model: each op pops the minimum and pushes the event back
// at its time plus a random delay of up to about a millisecond, drawn from a
// seeded xorshift generator. Depth 128 is the mean depth at pop of a quick
// figures pass, 2048 about that of Halo3D at 1000 ranks. An op allocates
// nothing.
func BenchmarkEventQueueHold(b *testing.B) {
	for _, depth := range []int{128, 2048} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var q eventQueue
			x := uint64(0x9e3779b97f4a7c15)
			delay := func() Time {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return Time(x % (1 << 20))
			}
			var seq uint64
			for i := 0; i < depth; i++ {
				seq++
				q.push(&event{at: delay(), seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop(maxTime)
				now := e.at
				seq++
				e.at, e.born, e.seq = now+delay(), now, seq
				q.push(e)
			}
		})
	}
}

package sim

import (
	"fmt"
	"testing"
)

// benchCrossTraffic drives a cross-traffic-heavy shard group to completion:
// every shard hosts one proc that each round defers `fanout` events onto the
// next shard and sleeps one lookahead, so every window ends with
// shards*fanout cross-shard events at the barrier. With trivial event
// bodies the run time is dominated by the window machinery — dispatch,
// outbox sort, and the barrier merge — which is what this benchmark pins.
func benchCrossTraffic(b *testing.B, shards, fanout, rounds int) {
	const la = Duration(1000)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		g := NewShardGroup(nil, shards, la)
		for i := 0; i < shards; i++ {
			s := g.Shard(i)
			dst := g.Shard((i + 1) % shards)
			s.Spawn("spray", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					t := p.Now().Add(la)
					for k := 0; k < fanout; k++ {
						s.Defer(dst, t, func() {})
					}
					p.Sleep(la)
				}
			})
		}
		if err := g.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardBarrierMerge is the satellite micro-benchmark for the
// window-barrier merge: 8 shards x 64 cross events per shard per window,
// 50 windows. Before the k-way merge this cost one reflection-based
// sort.Slice over the 512-event concatenation per window; after it, each
// worker sorts its own 64-event run in parallel and the coordinator merges
// the sorted runs.
func BenchmarkShardBarrierMerge(b *testing.B) {
	for _, c := range []struct{ shards, fanout int }{
		{2, 64},
		{8, 64},
		{8, 512},
	} {
		b.Run(fmt.Sprintf("shards%d/fanout%d", c.shards, c.fanout), func(b *testing.B) {
			benchCrossTraffic(b, c.shards, c.fanout, 50)
		})
	}
}

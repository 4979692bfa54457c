package sim

import (
	"fmt"
	"testing"
)

// benchCrossTraffic drives a cross-traffic-heavy shard group to completion:
// every shard hosts one proc that each round defers `fanout` events onto the
// next shard and sleeps one lookahead, so every window ends with
// shards*fanout cross-shard events at the barrier. With trivial event
// bodies the run time is dominated by the window machinery — waking the
// shard goroutines and delivering the outboxes at the barrier — which is
// what this benchmark pins.
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

// BenchmarkShardBarrierMerge is the micro-benchmark for the window
// barrier's delivery: up to 8 shards x 512 cross events per shard per
// window, 50 windows. The barrier pushes each outbox into its destination
// queue in issue order and leaves the same-time order to the queue. It once
// sorted every outbox and k-way merged the sorted runs, and before that
// sort.Slice'd the concatenation of all outboxes.
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

package cluster

import "fmt"

// A shard mapping partitions MPI ranks onto event-loop shards for the
// conservative parallel simulation (sim.ShardGroup): a pure function
// rank → shard.

// BlockShards maps contiguous blocks of ranks to each shard — the per-node
// (and per-wing, when block size is a multiple of the wing size) mapping.
// Contiguous blocks keep neighbour traffic of block-decomposed motifs on
// one shard, which is what makes topology-derived lookahead large.
func BlockShards(ranks, shards int) (func(rank int) int, error) {
	if err := validateShardCount(ranks, shards); err != nil {
		return nil, err
	}
	per := (ranks + shards - 1) / shards
	return func(rank int) int { return rank / per }, nil
}

func validateShardCount(ranks, shards int) error {
	if ranks <= 0 {
		return fmt.Errorf("cluster: rank count %d must be positive", ranks)
	}
	if shards < 1 {
		return fmt.Errorf("cluster: shard count %d must be at least 1", shards)
	}
	if shards > ranks {
		return fmt.Errorf("cluster: %d shards for %d ranks (at most one shard per rank)", shards, ranks)
	}
	return nil
}

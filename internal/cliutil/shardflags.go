package cliutil

import "fmt"

// Topologies lists the network topology names the CLIs accept, in help
// order.
var Topologies = []string{"uniform", "dragonfly"}

// ValidateShards rejects unusable -shards values at startup: the shard
// count must be positive and no larger than the rank count it partitions
// (an empty shard can never make progress and only hides a mis-sized run).
func ValidateShards(shards, ranks int) error {
	if shards < 1 {
		return fmt.Errorf("cliutil: -shards %d, must be >= 1", shards)
	}
	if ranks > 0 && shards > ranks {
		return fmt.Errorf("cliutil: -shards %d exceeds %d ranks", shards, ranks)
	}
	return nil
}

// ValidateTopology normalizes a -topology name, rejecting unknown names at
// startup rather than after a long run.
func ValidateTopology(name string) (string, error) {
	for _, t := range Topologies {
		if name == t {
			return t, nil
		}
	}
	return "", fmt.Errorf("cliutil: unknown topology %q (want uniform|dragonfly)", name)
}

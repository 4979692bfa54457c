package cliutil

import "testing"

func TestValidateShards(t *testing.T) {
	for _, tc := range []struct {
		shards, ranks int
		ok            bool
	}{
		{1, 2, true},
		{8, 512, true},
		{8, 8, true},
		{1, 0, true},  // unknown rank count: only positivity is checkable
		{0, 8, false}, // shards < 1
		{-3, 8, false},
		{9, 8, false}, // shards > ranks
	} {
		err := ValidateShards(tc.shards, tc.ranks)
		if (err == nil) != tc.ok {
			t.Errorf("ValidateShards(%d, %d) = %v, want ok=%v", tc.shards, tc.ranks, err, tc.ok)
		}
	}
}

func TestValidateTopology(t *testing.T) {
	for _, name := range Topologies {
		if got, err := ValidateTopology(name); err != nil || got != name {
			t.Errorf("ValidateTopology(%q) = %q, %v", name, got, err)
		}
	}
	for _, name := range []string{"", "torus", "Dragonfly", "fat-tree"} {
		if _, err := ValidateTopology(name); err == nil {
			t.Errorf("ValidateTopology(%q) accepted", name)
		}
	}
}

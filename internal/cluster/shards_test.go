package cluster

import "testing"

func TestBlockShards(t *testing.T) {
	m, err := BlockShards(8, 3) // blocks of 3: [0..2]->0 [3..5]->1 [6..7]->2
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1, 2, 2}
	for r, w := range want {
		if got := m(r); got != w {
			t.Fatalf("BlockShards(8,3)(%d) = %d, want %d", r, got, w)
		}
	}
	// Every shard is non-empty and ids are contiguous from 0.
	seen := map[int]bool{}
	for r := 0; r < 8; r++ {
		seen[m(r)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("shards used = %v, want 3", seen)
	}
}

func TestShardCountValidation(t *testing.T) {
	for _, tc := range []struct{ ranks, shards int }{
		{8, 0}, {8, -1}, {8, 9}, {0, 1},
	} {
		if _, err := BlockShards(tc.ranks, tc.shards); err == nil {
			t.Fatalf("BlockShards(%d,%d): no error", tc.ranks, tc.shards)
		}
	}
	if m, err := BlockShards(8, 1); err != nil || m(7) != 0 {
		t.Fatalf("single shard: %v", err)
	}
}

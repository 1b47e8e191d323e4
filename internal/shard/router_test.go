package shard

import (
	"fmt"
	"testing"
)

// TestHashGolden pins the FNV-1a hash so the key→shard mapping can never
// silently change across releases (a remap would strand every key's data
// on its old shard).
func TestHashGolden(t *testing.T) {
	cases := []struct {
		key  string
		want uint64
	}{
		{"", 14695981039346656037},
		{"a", 12638187200555641996},
		{"session/1", 1621662406134654267},
		{"session/42", 9270085231526038354},
		{"cart/7", 7706832490902604373},
		{"customer/99", 3460828782299624264},
		{"item/123", 5405167777712446309},
	}
	for _, c := range cases {
		if got := Hash(c.key); got != c.want {
			t.Errorf("Hash(%q) = %d, want %d", c.key, got, c.want)
		}
	}
}

// TestRouterStableMapping pins concrete key→shard assignments for every
// routing entry point of the epoch-0 table: Group, the slice it goes
// through, and the Owned predicate of that slice (RouteInt has its own
// differential test, TestRouteIntMatchesGroup).
func TestRouterStableMapping(t *testing.T) {
	cases := []struct {
		key    string
		shards int
		want   int
	}{
		{"", 2, 1}, {"", 4, 1}, {"", 8, 5},
		{"a", 2, 0}, {"a", 4, 0}, {"a", 8, 4},
		{"session/1", 2, 1}, {"session/1", 4, 3}, {"session/1", 8, 3},
		{"session/42", 2, 0}, {"session/42", 4, 2}, {"session/42", 8, 2},
		{"cart/7", 2, 1}, {"cart/7", 4, 1}, {"cart/7", 8, 5},
		{"customer/99", 2, 0}, {"customer/99", 4, 0}, {"customer/99", 8, 0},
		{"item/123", 2, 1}, {"item/123", 4, 1}, {"item/123", 8, 5},
	}
	for _, c := range cases {
		r := NewRoutingTable(c.shards)
		if got := r.Group(c.key); got != c.want {
			t.Errorf("NewRoutingTable(%d).Group(%q) = %d, want %d", c.shards, c.key, got, c.want)
		}
		sl := r.SliceOf(c.key)
		if r.Assign[sl] != c.want || !r.Owned([]int{sl})(c.key) || r.Owned([]int{sl + 1})(c.key) {
			t.Errorf("NewRoutingTable(%d): slice %d of %q disagrees with Group", c.shards, sl, c.key)
		}
	}
}

// TestRouterSingleShardDegenerate: with one shard every key maps to
// shard 0 — the configuration that must behave like the unsharded store.
func TestRouterSingleShardDegenerate(t *testing.T) {
	r := NewRoutingTable(1)
	for i := 0; i < 1000; i++ {
		if got := r.Group(fmt.Sprintf("key/%d", i)); got != 0 {
			t.Fatalf("1-shard router sent key/%d to shard %d", i, got)
		}
	}
}

// TestRouterEveryKeyMapsToExactlyOneShard: the mapping is a total
// function into [0, shards) and is deterministic call over call.
func TestRouterEveryKeyMapsToExactlyOneShard(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		r := NewRoutingTable(shards)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key/%d", i)
			s1, s2 := r.Group(key), r.Group(key)
			if s1 != s2 {
				t.Fatalf("shards=%d: Group(%q) unstable: %d then %d", shards, key, s1, s2)
			}
			if s1 < 0 || s1 >= shards {
				t.Fatalf("shards=%d: Group(%q) = %d out of range", shards, key, s1)
			}
		}
	}
}

// TestRouterDistribution: hashing 10k session keys across each shard
// count leaves no shard above 2× the mean (the balance bound the
// scaling experiments rely on).
func TestRouterDistribution(t *testing.T) {
	const keys = 10000
	for _, shards := range []int{2, 4, 8, 16} {
		r := NewRoutingTable(shards)
		counts := make([]int, shards)
		for i := 0; i < keys; i++ {
			counts[r.Group(fmt.Sprintf("session/%d", i))]++
		}
		mean := float64(keys) / float64(shards)
		for s, n := range counts {
			if float64(n) > 2*mean {
				t.Errorf("shards=%d: shard %d got %d keys, over 2x mean %.0f", shards, s, n, mean)
			}
			if n == 0 {
				t.Errorf("shards=%d: shard %d got no keys", shards, s)
			}
		}
	}
}

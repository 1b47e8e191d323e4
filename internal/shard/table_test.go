package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"robuststore/internal/tpcw"
)

// goldenKeys are the pinned keys of the historical router golden test,
// plus the routing vocabularies of every tier (sessions, carts,
// customers, items).
var goldenKeys = func() []string {
	keys := []string{
		"", "a", "session/1", "session/42", "cart/7", "customer/99", "item/123",
	}
	for i := 0; i < 500; i++ {
		keys = append(keys,
			fmt.Sprintf("session/%d", i),
			fmt.Sprintf("cart/%d", i),
			fmt.Sprintf("customer/%d", i),
			fmt.Sprintf("item/%d", i),
			fmt.Sprintf("key/%d", i),
		)
	}
	return keys
}()

// TestTableEpoch0MatchesModN is the refactor's no-stranded-keys proof: a
// table-driven sweep asserting the epoch-0 RoutingTable reproduces the
// historical hash%N mapping bit for bit, for every shard count the
// deployments use, over the golden key set.
func TestTableEpoch0MatchesModN(t *testing.T) {
	for n := 1; n <= 8; n++ {
		tab := NewRoutingTable(n)
		if tab.Epoch != 0 {
			t.Fatalf("NewRoutingTable(%d).Epoch = %d, want 0", n, tab.Epoch)
		}
		if tab.Groups() != n {
			t.Fatalf("NewRoutingTable(%d).Groups() = %d", n, tab.Groups())
		}
		for _, key := range goldenKeys {
			want := int(Hash(key) % uint64(n))
			if got := tab.Group(key); got != want {
				t.Fatalf("n=%d: epoch-0 table routes %q to %d, hash%%N says %d (key stranded)",
					n, key, got, want)
			}
		}
	}
}

// TestTableEpoch0MatchesRouterGolden re-pins the concrete assignments of
// the historical router golden test against the table, so both layers
// share one source of truth.
func TestTableEpoch0MatchesRouterGolden(t *testing.T) {
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
		if got := NewRoutingTable(c.shards).Group(c.key); got != c.want {
			t.Errorf("NewRoutingTable(%d).Group(%q) = %d, want %d", c.shards, c.key, got, c.want)
		}
	}
}

// TestRouteIntMatchesGroup: routing a prefixed integer without building
// its key answers exactly what the string path answers for the key the
// tpcw key functions spell — on the epoch-0 table and on a grown one, over
// the edge IDs (sign, digit-count boundaries, both int64 extremes) and 10k
// random ones — and allocates nothing.
func TestRouteIntMatchesGroup(t *testing.T) {
	grown, _ := NewRoutingTable(3).Grow(3)
	ids := []int64{0, 1, -1, 99, 100, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		ids = append(ids, int64(rng.Uint64()))
	}
	for _, tab := range []RoutingTable{NewRoutingTable(4), grown} {
		for _, id := range ids {
			key := tpcw.SessionKey(id)
			sl, g := tab.RouteInt(tpcw.SessionPrefix, id)
			if sl != tab.SliceOf(key) || g != tab.Group(key) {
				t.Fatalf("epoch %d: RouteInt(%q, %d) = slice %d group %d, the key %q routes to slice %d group %d",
					tab.Epoch, tpcw.SessionPrefix, id, sl, g, key, tab.SliceOf(key), tab.Group(key))
			}
		}
		if _, g := tab.RouteInt(tpcw.CustomerPrefix, 99); g != tab.Group(tpcw.CustomerKey(99)) {
			t.Fatalf("epoch %d: customer 99 routes to %d, its key to %d", tab.Epoch, g, tab.Group(tpcw.CustomerKey(99)))
		}
		if _, g := tab.RouteInt(tpcw.ItemPrefix, 123); g != tab.Group(tpcw.ItemKey(123)) {
			t.Fatalf("epoch %d: item 123 routes to %d, its key to %d", tab.Epoch, g, tab.Group(tpcw.ItemKey(123)))
		}
	}
	tab := NewRoutingTable(4)
	if n := testing.AllocsPerRun(100, func() { tab.RouteInt(tpcw.SessionPrefix, math.MinInt64) }); n != 0 {
		t.Fatalf("RouteInt allocates %v times per call, want 0", n)
	}
}

// TestTableGrow: growing N→N+1 moves exactly the new group's fair share,
// every moved slice lands on the new group, every unmoved slice keeps its
// owner, and the result is balanced.
func TestTableGrow(t *testing.T) {
	for n := 1; n <= 6; n++ {
		tab := NewRoutingTable(n)
		next, moved := tab.Grow(n)
		if next.Epoch != tab.Epoch+1 {
			t.Fatalf("n=%d: Grow epoch %d, want %d", n, next.Epoch, tab.Epoch+1)
		}
		if want := tab.Slices() / (n + 1); len(moved) != want {
			t.Fatalf("n=%d: moved %d slices, want %d", n, len(moved), want)
		}
		movedSet := map[int]bool{}
		for _, s := range moved {
			movedSet[s] = true
			if next.Assign[s] != n {
				t.Fatalf("n=%d: moved slice %d assigned to %d, not the new group", n, s, next.Assign[s])
			}
		}
		counts := make([]int, n+1)
		for s, g := range next.Assign {
			counts[g]++
			if !movedSet[s] && g != tab.Assign[s] {
				t.Fatalf("n=%d: unmoved slice %d changed owner %d→%d", n, s, tab.Assign[s], g)
			}
		}
		min, max := counts[0], counts[0]
		for _, c := range counts[1:] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1+n {
			t.Errorf("n=%d: post-grow slice counts unbalanced: %v", n, counts)
		}
		// Determinism: growing again from the same table gives the same
		// result.
		next2, moved2 := tab.Grow(n)
		if !reflect.DeepEqual(next, next2) || len(moved) != len(moved2) {
			t.Fatalf("n=%d: Grow is not deterministic", n)
		}
	}
}

// TestTableGrowChain: repeated growth 1→6 keeps the mapping total and the
// per-group shares within one slice-per-group of fair.
func TestTableGrowChain(t *testing.T) {
	tab := NewRoutingTable(1)
	for n := 1; n <= 5; n++ {
		tab, _ = tab.Grow(n)
		if tab.Groups() != n+1 {
			t.Fatalf("after grow #%d: %d groups", n, tab.Groups())
		}
		owned := make([]bool, n+1)
		for _, g := range tab.Assign {
			owned[g] = true // an out-of-range group panics here
		}
		for g, ok := range owned {
			if !ok {
				t.Fatalf("after grow #%d: group %d owns no slices", n, g)
			}
		}
	}
	if tab.Epoch != 5 {
		t.Fatalf("epoch after 5 grows = %d", tab.Epoch)
	}
}

package shard

import (
	"fmt"
	"strconv"
)

// This file makes routing explicit, versioned state instead of an
// arithmetic convention: a RoutingTable partitions the hash space into a
// fixed number of slices and assigns each slice to a Paxos group. Tables
// are versioned by a monotonically increasing epoch; epoch 0 is defined
// to reproduce the historical mod-N mapping bit for bit (golden-tested),
// so deploying the table costs no key movement. Later epochs are produced
// by Grow, which reassigns whole slices to a new group — the unit of the
// live-migration protocol in migrate.go. The design follows the
// manifest-versioning idiom (KevoDB): the current table is a small
// artifact that every tier reads, not a formula frozen into the code.
// Nothing persists or ships a table yet, so it has no wire encoding.

// slicesPerGroup is the hash-space granularity of a fresh table: an
// epoch-0 table over n groups has n×slicesPerGroup slices. The multiple
// keeps slice count divisible by n (the mod-N identity below) while
// giving Grow enough slices to rebalance in ~1.5 % steps.
const slicesPerGroup = 64

// RoutingTable maps hash-space slices to Paxos groups. A key's slice is
// Hash(key) mod Slices(); its group is Assign[slice]. The zero value is
// not a valid table; construct with NewRoutingTable.
type RoutingTable struct {
	// Epoch versions the table: routing state published under a higher
	// epoch supersedes every lower one. Epoch 0 is the deployment-time
	// table, identical to the historical hash%N router.
	Epoch int64

	// Assign maps slice index → owning group. len(Assign) is the slice
	// count, fixed for the lifetime of a table lineage (changing it
	// would move slice boundaries and strand every key).
	Assign []int
}

// NewRoutingTable returns the epoch-0 table over n groups. Its mapping is
// bit-for-bit the historical mod-N router: the slice count is a multiple
// of n, so Hash(key) mod Slices mod n == Hash(key) mod n.
func NewRoutingTable(n int) RoutingTable {
	if n <= 0 {
		panic("shard: NewRoutingTable needs a positive group count")
	}
	t := RoutingTable{Assign: make([]int, n*slicesPerGroup)}
	for i := range t.Assign {
		t.Assign[i] = i % n
	}
	return t
}

// Slices returns the hash-space slice count.
func (t RoutingTable) Slices() int { return len(t.Assign) }

// Groups returns the group count (1 + the highest assigned group).
func (t RoutingTable) Groups() int {
	max := 0
	for _, g := range t.Assign {
		if g > max {
			max = g
		}
	}
	return max + 1
}

// SliceOf returns the hash-space slice owning key.
func (t RoutingTable) SliceOf(key string) int {
	return int(Hash(key) % uint64(len(t.Assign)))
}

// Group returns the group owning key under this table.
func (t RoutingTable) Group(key string) int {
	return t.Assign[t.SliceOf(key)]
}

// RouteInt returns the slice and group of the key prefix + decimal(id) —
// what SliceOf and Group answer for that string — without building it: the
// request path routes a session three times per interaction. The digits
// are hashed from a stack buffer (20 bytes hold any int64, sign included).
func (t RoutingTable) RouteInt(prefix string, id int64) (slice, group int) {
	var buf [20]byte
	h := fnv1a(fnv1a(fnvOffset64, prefix), strconv.AppendInt(buf[:0], id, 10))
	slice = int(h % uint64(len(t.Assign)))
	return slice, t.Assign[slice]
}

// Owned returns the key predicate selecting exactly the given slices —
// the filter a source group's keyed snapshot export runs under.
func (t RoutingTable) Owned(slices []int) func(key string) bool {
	in := make(map[int]bool, len(slices))
	for _, s := range slices {
		in[s] = true
	}
	n := uint64(len(t.Assign))
	return func(key string) bool { return in[int(Hash(key)%n)] }
}

// Grow returns the next-epoch table with group newGroup added, plus the
// slices that move to it. Reassignment is deterministic: slices are taken
// one at a time from whichever group currently owns the most (ties to the
// lowest group index, highest slice index first) until the new group owns
// its fair share, floor(Slices/(groups+1)). Slices that do not move keep
// their owner, so only the moved slices' keys change groups.
func (t RoutingTable) Grow(newGroup int) (next RoutingTable, moved []int) {
	n := t.Groups()
	if newGroup != n {
		panic(fmt.Sprintf("shard: Grow(%d) on a %d-group table (new group must be the next index)", newGroup, n))
	}
	next = RoutingTable{Epoch: t.Epoch + 1, Assign: append([]int(nil), t.Assign...)}
	// Per-group slice lists, slice indices ascending.
	own := make([][]int, n)
	for s, g := range t.Assign {
		own[g] = append(own[g], s)
	}
	want := len(t.Assign) / (n + 1)
	for len(moved) < want {
		// Donor: the group owning the most slices right now.
		donor := 0
		for g := 1; g < n; g++ {
			if len(own[g]) > len(own[donor]) {
				donor = g
			}
		}
		s := own[donor][len(own[donor])-1]
		own[donor] = own[donor][:len(own[donor])-1]
		next.Assign[s] = newGroup
		moved = append(moved, s)
	}
	return next, moved
}

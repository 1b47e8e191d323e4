// Package detsort provides the sanctioned way to iterate Go maps inside
// the deterministic replica packages: collect the keys, sort them, walk
// them in order. The Go runtime randomizes map iteration order on
// purpose, and any map range whose body reaches an order-sensitive sink
// (a message send, a proposal, a WAL append, an exported slice) leaks
// that randomness into replica-visible behaviour — the bug class the
// detorder analyzer (internal/analysis/detorder) rejects. Replacing
//
//	for k, v := range m { emit(k, v) }
//
// with
//
//	for _, k := range detsort.Keys(m) { emit(k, m[k]) }
//
// makes the iteration replayable on every replica and every run.
package detsort

import (
	"cmp"
	"slices"
)

// Keys returns m's keys in ascending order.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

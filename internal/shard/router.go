// Package shard partitions a replicated store across N independent Paxos
// groups — the first scaling lever past the paper's single-group design
// (ROADMAP). Each shard is a complete Treplica replicated state machine
// (internal/core over internal/paxos) with its own members, WAL and
// checkpoints; a deterministic key→shard router in front fans requests
// out to the owning group. Groups share nothing, so aggregate ordered
// throughput scales with the shard count until the network saturates.
//
// The partition key is chosen by the caller: the web tier routes a client
// session by its tpcw.SessionKey, and a customer or item a transaction
// touches by its row key. Keys on different shards observe no common
// order — exactly the per-group total order that hash-partitioned stores
// trade global ordering for.
package shard

// FNV-1a constants (64 bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash returns the 64-bit FNV-1a hash of the partition key.
func Hash(key string) uint64 { return fnv1a(fnvOffset64, key) }

// fnv1a folds s into the running FNV-1a hash h.
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

package core

// This file is the incremental-checkpoint pipeline: instead of writing
// the whole application state every interval, a machine that can track
// its dirtied rows emits them as a small delta layer chained onto the
// last full base image, LSM-style. The durable layout is
//
//	ckpt.base.<seq>          full state image (appSnap)
//	ckpt.delta.<seq>.<k>     k-th delta layer on that base (appSnap
//	                         whose Data is the machine's delta payload)
//	meta                     the manifest (metaSnap): names the base and
//	                         the chain, in application order
//
// The manifest write is the atomic commit point: every layer is durable
// strictly before the manifest that references it, layer names are
// versioned by base sequence so a new base can never overwrite one a
// live manifest still references, and superseded layers are deleted only
// after the manifest that dropped them is durable. A crash at any point
// therefore leaves a consistent (base, chain) prefix — never a torn
// chain — at the cost of at most one orphaned layer, which is either
// overwritten by the next same-name write or left unreferenced.
//
// Steady-state checkpoint writes are O(rows dirtied since the last
// checkpoint) instead of O(state), freeing disk bandwidth for the WAL
// group-commit pipeline; recovery loads base + chain, and the remote
// snapshot fallback streams only the layers a catching-up peer is
// missing. Compaction folds the chain back into a fresh base when it
// grows past Config.MaxDeltaChain layers or Config.MaxChainFraction of
// the base size — folding is a full Snapshot of the live machine, whose
// state is by definition base+chain+suffix already applied.

import (
	"fmt"

	"robuststore/internal/env"
	"robuststore/internal/paxos"
)

// DeltaSnapshotter is the optional StateMachine capability behind
// incremental checkpoints. A machine that implements it has its
// checkpoints taken as delta layers (rows dirtied since the previous
// checkpoint) whenever possible; machines without it keep the monolithic
// full-snapshot path, bit for bit.
type DeltaSnapshotter interface {
	StateMachine

	// SnapshotDelta returns an immutable payload holding the rows
	// dirtied since the previous Snapshot or successful SnapshotDelta
	// call, plus its nominal serialized size. ok=false means the
	// machine cannot express the difference as a keyed upsert — no full
	// Snapshot has anchored the tracking yet, or rows were deleted
	// wholesale (PartitionDrop) — and the caller must take a full
	// Snapshot instead; the dirty tracking is then left untouched.
	//
	// A successful call resets the dirty tracking: the next delta is
	// relative to this one.
	SnapshotDelta() (data any, size int64, ok bool)

	// ApplyDelta merges a SnapshotDelta payload into the state. Layers
	// are applied in chain order onto the base they were created
	// against; after the last one the state must equal the state the
	// final SnapshotDelta observed.
	ApplyDelta(data any)
}

// LayerRef names one delta layer in the manifest chain.
type LayerRef struct {
	Name        string
	LastApplied paxos.InstanceID
	Size        int64
}

func baseLayerName(seq int64) string { return fmt.Sprintf("ckpt.base.%d", seq) }

func deltaLayerName(seq int64, k int) string {
	return fmt.Sprintf("ckpt.delta.%d.%d", seq, k)
}

// baseIDFor identifies a base across the cluster (remote missing-layer
// streaming): the writer's node ID in the high bits, its monotone base
// sequence in the low ones. Zero is reserved for "no base".
func baseIDFor(me env.NodeID, seq int64) int64 {
	return (int64(me)+1)<<32 | (seq & 0xffffffff)
}

// baseSeqOf recovers the monotone sequence from a manifest's BaseID, so
// a restarted incarnation keeps numbering past its predecessor's layers
// (reusing the live base's name would tear the chain).
func baseSeqOf(id int64) int64 { return id & 0xffffffff }

// manifestSize models the manifest's on-disk size: a fixed header plus
// one entry per chain layer.
func manifestSize(layers int) int64 { return 256 + int64(layers)*48 }

// checkpointLayered is Checkpoint's incremental path: append a delta
// layer while the chain is healthy, otherwise fold into a fresh base.
func (r *Replica) checkpointLayered(ds DeltaSnapshotter, done func()) {
	if r.baseName != "" && !r.forceBase &&
		len(r.chain) < r.cfg.MaxDeltaChain &&
		float64(r.chainBytes) < r.cfg.MaxChainFraction*float64(r.baseSize) {
		if data, size, ok := ds.SnapshotDelta(); ok {
			r.writeDelta(data, size, done)
			return
		}
		// The machine cannot bound a delta against the durable chain —
		// rows were dropped wholesale by a partition rebalance. Fall
		// through to a fresh base, which truncates the chain so dropped
		// rows can never resurrect from a stale layer on recovery.
	}
	r.writeBase(done)
}

// writeDelta appends one delta layer: layer first, manifest second.
func (r *Replica) writeDelta(data any, size int64, done func()) {
	at := r.lastApplied
	snap := r.envelope(data, size)
	if r.cfg.OnCheckpoint != nil {
		r.cfg.OnCheckpoint(size)
	}
	name := deltaLayerName(r.baseSeq, len(r.chain))
	chain := append(append([]LayerRef(nil), r.chain...), LayerRef{Name: name, LastApplied: at, Size: size})
	manifest := metaSnap{LastApplied: at, Base: r.baseName, BaseID: r.baseID, Chain: chain}
	r.pubCkptDeltas.Add(1)
	r.pubCkptBytes.Add(size)
	r.e.Storage().SaveSnapshot(name, env.Snapshot{Data: snap, Size: size}, func(error) {
		r.e.Storage().SaveSnapshot("meta", env.Snapshot{Data: manifest, Size: manifestSize(len(chain))}, func(error) {
			r.chain = chain
			r.chainBytes += size
			r.finishCheckpoint(at, nil, done)
		})
	})
}

// writeBase folds the full state into a fresh base (the first checkpoint,
// and every compaction): base first, manifest second, then the layers the
// manifest stopped referencing are garbage-collected.
func (r *Replica) writeBase(done func()) {
	at := r.lastApplied
	data, size := r.sm.Snapshot()
	snap := r.envelope(data, size)
	if r.cfg.OnCheckpoint != nil {
		r.cfg.OnCheckpoint(size)
	}
	seq := r.baseSeq + 1
	name := baseLayerName(seq)
	// Superseded once the new manifest commits: the current base and
	// chain, plus any layers a remote restore already orphaned in memory.
	gc := append([]string(nil), r.staleLayers...)
	if r.baseName != "" {
		gc = append(gc, r.baseName)
	}
	for _, ref := range r.chain {
		gc = append(gc, ref.Name)
	}
	manifest := metaSnap{LastApplied: at, Base: name, BaseID: baseIDFor(r.me, seq)}
	r.pubCkptBases.Add(1)
	r.pubCkptBytes.Add(size)
	r.e.Storage().SaveSnapshot(name, env.Snapshot{Data: snap, Size: size}, func(error) {
		r.e.Storage().SaveSnapshot("meta", env.Snapshot{Data: manifest, Size: manifestSize(0)}, func(error) {
			r.baseSeq, r.baseName, r.baseID, r.baseSize = seq, name, manifest.BaseID, size
			r.chain, r.chainBytes = nil, 0
			r.forceBase = false
			r.staleLayers = nil
			r.finishCheckpoint(at, gc, done)
		})
	})
}

// finishCheckpoint commits the in-memory bookkeeping once the manifest is
// durable, garbage-collects superseded layers and compacts the log.
func (r *Replica) finishCheckpoint(at paxos.InstanceID, gc []string, done func()) {
	r.lastCheckpoint = at
	r.hasCheckpoint = true
	r.checkpointing = false
	// Deleting only after the manifest dropped its references means a
	// crash in between leaks orphans, never tears the chain.
	for _, name := range gc {
		r.e.Storage().DeleteSnapshot(name, nil)
	}
	compactThrough := at - paxos.InstanceID(r.cfg.RetainInstances)
	if compactThrough >= 0 {
		r.en.Compact(compactThrough)
	}
	if done != nil {
		done()
	}
}

// loadChain is the recovery path for a layered manifest: restore the base
// image, then apply each chain layer in order. Every read charges its own
// modeled disk time, so recovery cost is base + chain, and the engine
// keeps learning the log suffix in parallel exactly as with a monolithic
// checkpoint.
func (r *Replica) loadChain(manifest metaSnap, bootEngine func()) {
	startEmpty := func(why string) {
		if r.cfg.SequentialRecovery {
			bootEngine()
		}
		r.e.Logf("core: %s; starting empty", why)
		// Discard any partially restored state: replaying the whole log
		// onto a torn prefix would corrupt the machine.
		r.sm = r.cfg.Machine()
		r.finishRestore(appSnap{LastApplied: -1})
	}
	r.e.Storage().LoadSnapshot(manifest.Base, func(snap env.Snapshot, ok bool) {
		base, good := snap.Data.(appSnap)
		if !ok || !good {
			startEmpty(fmt.Sprintf("missing or malformed base %q", manifest.Base))
			return
		}
		r.sm.Restore(base.Data)
		r.baseName = manifest.Base
		r.baseID = manifest.BaseID
		r.baseSeq = baseSeqOf(manifest.BaseID)
		r.baseSize = base.Size
		last := base
		var step func(k int)
		step = func(k int) {
			if k >= len(manifest.Chain) {
				r.chain = append([]LayerRef(nil), manifest.Chain...)
				r.chainBytes = 0
				for _, ref := range r.chain {
					r.chainBytes += ref.Size
				}
				if r.cfg.SequentialRecovery {
					bootEngine()
				}
				// The newest layer carries the replica's state; the
				// manifest, the commit point, says how far it reaches.
				last.LastApplied = manifest.LastApplied
				r.finishRestore(last)
				return
			}
			ref := manifest.Chain[k]
			r.e.Storage().LoadSnapshot(ref.Name, func(snap env.Snapshot, ok bool) {
				layer, good := snap.Data.(appSnap)
				ds, capable := r.sm.(DeltaSnapshotter)
				if !ok || !good || !capable {
					// Layers are durable before the manifest that
					// references them, so this is out-of-band damage
					// (or a machine that lost its delta capability).
					r.baseName, r.baseID, r.baseSize = "", 0, 0
					startEmpty(fmt.Sprintf("delta layer %q unreadable", ref.Name))
					return
				}
				ds.ApplyDelta(layer.Data)
				last = layer
				step(k + 1)
			})
		}
		step(0)
	})
}

// serveLayered answers a remote-snapshot request from a durable layered
// checkpoint: the base plus the chain — or, when the requester already
// restored this manifest's base, only the delta layers it is missing.
// Reading the layers charges our disk and the reply charges the network
// by the bytes actually shipped, like any state transfer.
func (r *Replica) serveLayered(from env.NodeID, manifest metaSnap, m snapReqMsg, send func(snapReplyMsg)) {
	reply := snapReplyMsg{OK: true, BaseID: manifest.BaseID}
	first := 0
	if m.HaveBaseID == manifest.BaseID && m.HaveLayers <= len(manifest.Chain) {
		first = m.HaveLayers
	}
	reply.FirstDelta = first
	var loadDelta func(k int)
	loadDelta = func(k int) {
		if k >= len(manifest.Chain) {
			send(reply)
			return
		}
		r.e.Storage().LoadSnapshot(manifest.Chain[k].Name, func(snap env.Snapshot, ok bool) {
			layer, good := snap.Data.(appSnap)
			if !ok || !good {
				// A compaction replaced the chain between the manifest
				// read and this layer read; the requester retries
				// against the new layout.
				send(snapReplyMsg{})
				return
			}
			reply.Deltas = append(reply.Deltas, layer)
			loadDelta(k + 1)
		})
	}
	if first > 0 {
		loadDelta(first)
		return
	}
	r.e.Storage().LoadSnapshot(manifest.Base, func(snap env.Snapshot, ok bool) {
		base, good := snap.Data.(appSnap)
		if !ok || !good {
			send(snapReplyMsg{})
			return
		}
		reply.HasBase = true
		reply.Base = base
		loadDelta(0)
	})
}

package core

// This file is the checkpoint pipeline. A checkpoint is a full base image
// or, for a machine that can track its dirtied rows, a small delta layer
// chained onto the last base, LSM-style. The durable layout is
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
// after the manifest that dropped them is durable. A crash or a failed
// write at any point therefore leaves a consistent (base, chain) prefix —
// never a torn chain — at the cost of at most one orphaned layer, which
// is either overwritten by the next same-name write or left unreferenced.
//
// Steady-state delta writes are O(rows dirtied since the last checkpoint)
// instead of O(state), freeing disk bandwidth for the WAL group-commit
// pipeline. Compaction folds the chain back into a fresh base when it
// grows past Config.MaxDeltaChain layers or Config.MaxChainFraction of
// the base size — folding is a full Snapshot of the live machine, whose
// state is by definition base+chain+suffix already applied. A machine
// without the capability, or MaxDeltaChain < 0, writes a base every time.
//
// One reader (readLayers) loads a manifest's layers for local recovery
// and for a peer's remote restore, and one applier (applyLayers) puts
// them into the machine on either side.

import (
	"fmt"

	"robuststore/internal/env"
	"robuststore/internal/paxos"
)

// DeltaSnapshotter is the optional StateMachine capability behind
// incremental checkpoints. A machine that implements it has its
// checkpoints taken as delta layers (rows dirtied since the previous
// checkpoint) whenever the chain is healthy; a machine without it has
// every checkpoint taken as a full base.
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

// writeDelta appends one delta layer to the chain.
func (r *Replica) writeDelta(data any, size int64, done func()) {
	at := r.lastApplied
	name := deltaLayerName(r.baseSeq, len(r.chain))
	chain := append(append([]LayerRef(nil), r.chain...), LayerRef{Name: name, LastApplied: at, Size: size})
	manifest := metaSnap{LastApplied: at, Base: r.baseName, BaseID: r.baseID, Chain: chain}
	r.pubCkptDeltas.Add(1)
	r.pubCkptBytes.Add(size)
	r.saveLayer(name, data, size, manifest, done, func() {
		r.chain = chain
		r.chainBytes += size
		r.finishCheckpoint(at, nil, done)
	})
}

// writeBase folds the full state into a fresh base (the first checkpoint,
// every compaction, and every checkpoint of a machine without deltas);
// once its manifest commits, the layers it stopped referencing are
// garbage-collected.
func (r *Replica) writeBase(done func()) {
	at := r.lastApplied
	data, size := r.sm.Snapshot()
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
	r.saveLayer(name, data, size, manifest, done, func() {
		r.baseSeq, r.baseName, r.baseID, r.baseSize = seq, name, manifest.BaseID, size
		r.chain, r.chainBytes = nil, 0
		r.forceBase = false
		r.staleLayers = nil
		r.finishCheckpoint(at, gc, done)
	})
}

// saveLayer writes a machine payload taken now as the layer name, then
// the manifest that names it, then runs commit. A failed write stops
// there: no manifest names a layer that is not durable, and nothing is
// adopted, deleted or compacted. The next checkpoint is a base, because
// the machine's dirty tracking has moved past rows no durable layer holds.
func (r *Replica) saveLayer(name string, data any, size int64, manifest metaSnap, done, commit func()) {
	failed := func(what string, err error) bool {
		if err == nil {
			return false
		}
		r.e.Logf("core: checkpoint %s for %q failed: %v", what, name, err)
		r.checkpointing = false
		r.forceBase = true
		if done != nil {
			done()
		}
		return true
	}
	// The one place the replica's own state joins the machine's payload.
	layer := appSnap{
		LastApplied: r.lastApplied,
		Delivered:   r.en.DeliveredSeqs(),
		Data:        data,
		Size:        size,
		logState:    r.logState.clone(),
	}
	if r.cfg.OnCheckpoint != nil {
		r.cfg.OnCheckpoint(size)
	}
	r.e.Storage().SaveSnapshot(name, env.Snapshot{Data: layer, Size: size}, func(err error) {
		if failed("layer", err) {
			return
		}
		r.e.Storage().SaveSnapshot("meta", env.Snapshot{Data: manifest, Size: manifestSize(len(manifest.Chain))}, func(err error) {
			if !failed("manifest", err) {
				commit()
			}
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

// readLayers reads a manifest's layers from storage: its base, unless
// from > 0 (the reader holds the base and the chain's first from layers),
// then the chain from index from on, one read per layer in chain order,
// each charging its own disk time. done gets ok=false if a layer the
// manifest names is missing or malformed — and for the zero manifest,
// whose unnamed base is never found. Local recovery and the
// remote-snapshot serve both read through here.
func (r *Replica) readLayers(manifest metaSnap, from int, done func(base *appSnap, layers []appSnap, ok bool)) {
	var names []string
	if from == 0 {
		names = append(names, manifest.Base)
	}
	for _, ref := range manifest.Chain[from:] {
		names = append(names, ref.Name)
	}
	read := make([]appSnap, 0, len(names))
	var step func()
	step = func() {
		switch {
		case len(read) < len(names):
			r.e.Storage().LoadSnapshot(names[len(read)], func(snap env.Snapshot, ok bool) {
				layer, good := snap.Data.(appSnap)
				if !ok || !good {
					done(nil, nil, false)
					return
				}
				read = append(read, layer)
				step()
			})
		case from > 0:
			done(nil, read, true)
		default:
			done(&read[0], read[1:], true)
		}
	}
	step()
}

// applyLayers puts layers read by readLayers into the machine: it restores
// base, if one is given, then applies each delta in order. If there are
// deltas and the machine cannot apply them, it changes nothing and
// reports false.
func (r *Replica) applyLayers(base *appSnap, layers []appSnap) bool {
	ds, capable := r.sm.(DeltaSnapshotter)
	if len(layers) > 0 && !capable {
		return false
	}
	if base != nil {
		r.sm.Restore(base.Data)
	}
	for _, layer := range layers {
		ds.ApplyDelta(layer.Data)
	}
	return true
}

package core

// This file is the core half of live shard migration (internal/shard):
// the optional state-machine capability to export, import and drop the
// rows owned by a key predicate, plus the ordered meta-actions the
// migration protocol submits through the normal consensus path. Keyed
// snapshot transfer reuses the checkpoint machinery — an export is a
// filtered snapshot, an import travels the ordered log like any action
// (so every destination replica applies it identically), and the
// command-size model charges the transfer to the network and WAL exactly
// like a checkpoint of the moved bytes.

// PartitionedMachine is the optional StateMachine capability live
// migration needs. A machine that implements it can emit only the rows it
// is losing (a keyed snapshot), merge such a snapshot in, and drop moved
// rows after cutover.
//
// ImportOwned MUST be an idempotent keyed upsert: the migration driver
// retries imports whose completion it could not observe (e.g. the
// submission target crashed mid-handoff), so the same payload may be
// ordered and applied more than once. Map-set semantics plus
// max-monotonic ID counters satisfy this naturally.
type PartitionedMachine interface {
	StateMachine

	// ExportOwned returns a deep-copied snapshot of the rows whose key
	// satisfies owned, plus its nominal serialized size in bytes (the
	// quantity the transfer is charged as).
	ExportOwned(owned func(key string) bool) (data any, size int64)

	// ImportOwned merges an ExportOwned payload into the state.
	// Idempotent (see above).
	ImportOwned(data any)

	// DropOwned removes the rows whose key satisfies owned (the source
	// side's post-cutover cleanup). Idempotent.
	DropOwned(owned func(key string) bool)
}

// Noop is an ordered barrier: it is totally ordered like any action but
// applied without touching the state machine. The migration protocol uses
// it to drain a group — once a Noop submitted after a routing freeze has
// applied, every previously submitted action has too.
type Noop struct{}

// PartitionImport carries a keyed snapshot into the destination group's
// ordered log. Every replica of the group applies it at the same log
// position, so the imported rows join the replicated state exactly like
// rows written by ordered actions.
//
// The replica applies at most one import per (Epoch, Source): the
// migration driver's retry sweep may get several copies ordered (a slow
// or recovering proposer can commit a stale duplicate arbitrarily late),
// and a late copy applied after cutover would overwrite rows that
// post-cutover writes already advanced. The dedup set travels with the
// application checkpoint, so replay and recovery reproduce it exactly.
type PartitionImport struct {
	// Epoch is the routing epoch this import installs.
	Epoch int64

	// Source is the group the payload was exported from; (Epoch, Source)
	// identifies the transfer for the at-most-once guard.
	Source int

	// Data is the ExportOwned payload.
	Data any

	// Size is the payload's nominal serialized size; the consensus
	// command-size model charges the WAL and network with it.
	Size int64
}

// PartitionDrop removes moved rows on the source group after cutover. The
// predicate is carried in-memory like snapshot payloads are; a networked
// deployment would ship the moved slice set and rebuild it.
type PartitionDrop struct {
	// Epoch is the routing epoch whose cutover this drop cleans up
	// after (diagnostics).
	Epoch int64

	// Owned selects the rows to remove.
	Owned func(key string) bool
}

// importKey identifies one keyed-snapshot transfer for the at-most-once
// import guard.
type importKey struct {
	Epoch  int64
	Source int
}

// executeAction applies one ordered action: migration meta-actions are
// handled by the replica itself (on machines without the partition
// capability they degrade to ordered no-ops), everything else goes to the
// state machine. All replicas see the same log, so the import dedup set
// evolves identically everywhere.
func (r *Replica) executeAction(action any) any {
	switch a := action.(type) {
	case Noop:
		return nil
	case TxnPrepare:
		return r.execTxnPrepare(a)
	case TxnOutcome:
		return r.execTxnOutcome(a)
	case TxnDecision:
		return r.execTxnDecision(a)
	case PartitionImport:
		key := importKey{Epoch: a.Epoch, Source: a.Source}
		if r.imported[key] {
			return nil // stale duplicate of an applied transfer
		}
		if pm, ok := r.sm.(PartitionedMachine); ok {
			pm.ImportOwned(a.Data)
		}
		if r.imported == nil {
			r.imported = make(map[importKey]bool)
		}
		r.imported[key] = true
		return nil
	case PartitionDrop:
		// Drops need no guard: post-cutover the source receives no new
		// writes to moved keys, so a late duplicate finds nothing new.
		if pm, ok := r.sm.(PartitionedMachine); ok {
			pm.DropOwned(a.Owned)
		}
		// A wholesale deletion cannot be expressed as a row-upsert delta
		// layer: truncate the delta chain at the next checkpoint (fold
		// into a fresh base) so dropped rows can never resurrect from a
		// stale layer on recovery. Until then, recovery replays this
		// drop from the retained log suffix. Machines track this
		// themselves too (SnapshotDelta must fail after DropOwned); the
		// replica-level flag is the belt to that suspender.
		r.forceBase = true
		return nil
	default:
		return r.sm.Execute(action)
	}
}

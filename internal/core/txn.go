package core

import (
	"strconv"

	"robuststore/internal/detsort"
)

// This file is the core half of cross-shard transactions (two-phase
// commit over Paxos groups): the ordered meta-action
// records the 2PC protocol submits through the normal consensus path,
// and the per-replica transaction state they evolve. The shape is the
// shard-migration machinery's (partition.go): each record is totally
// ordered like any action, applied idempotently per transaction ID, and
// the resulting state travels with the application checkpoint so replay
// and recovery reproduce it exactly.
//
// Protocol roles (the driver lives in internal/webtier; core only
// executes the records):
//
//   - A participant group orders a TxnPrepare carrying its branch of the
//     transaction. Applying it validates the branch against local state
//     (TxnStager.StageTxn) and, on a yes-vote, stages the action without
//     executing it; the staged keys block conflicting writes until the
//     outcome arrives (TxnBlocksInt).
//   - The coordinator Paxos-commits a TxnDecision in its own home group
//     before releasing the outcome. The decision record is
//     first-writer-wins: a presumed-abort inquiry racing the
//     coordinator's commit resolves to whichever record was ordered
//     first, and both readers see the same recorded outcome — this is
//     what makes coordinator crash between prepare and commit recover
//     deterministically.
//   - Participants then order a TxnOutcome. A commit executes the staged
//     action at the outcome record's log position; an abort discards it.
//     Either way the transaction becomes terminal on that participant,
//     so retried outcome records (and late duplicate prepares) degrade to
//     ordered no-ops.
//
// Every record is replayable: the transaction maps (logState, replica.go)
// are driven by the ordered log only, so each replica of a group holds the
// same transaction state at the same log position, and a replica recovering
// from a checkpoint plus log suffix reconstructs exactly the prepared set it
// crashed with. Config.OnTxnStaged reports every branch that enters that
// set, by a prepare or by a checkpoint, so the driver arms one resolution
// loop per branch from one place.

// TxnStager is the optional StateMachine capability a participant uses
// to vote on a prepare. A machine that implements it validates the
// branch action against current state without executing it; machines
// without the capability vote yes unconditionally (commit then applies
// the action like any ordered action, errors surfacing in its result).
type TxnStager interface {
	StateMachine

	// StageTxn reports whether action could apply cleanly to the current
	// state: an empty string is a yes-vote, a non-empty string is the
	// no-vote reason. It must not mutate the state — the replica, not
	// the machine, tracks staged transactions.
	StageTxn(action any) string
}

// TxnPrepare stages one participant branch of a cross-shard transaction
// in the participant group's ordered log. Idempotent per ID: duplicates
// of an already-staged (or already-resolved) prepare re-vote from the
// recorded state without re-staging.
type TxnPrepare struct {
	// ID names the transaction cluster-wide (the coordinator mints it).
	ID string

	// Home is the coordinator's group — where TxnDecision records for
	// this transaction are ordered, and where a participant stuck with a
	// prepared branch sends its status inquiry.
	Home int

	// Action is this group's branch, executed only on commit.
	Action any

	// Keys are the branch's conflict keys: while the branch is prepared,
	// the tier boundary holds conflicting writes (TxnBlocksInt) so the
	// outcome's log position, not a racing write, decides what the
	// branch observes.
	Keys []string
}

// TxnOutcome resolves a prepared branch: a commit executes its staged
// action at this record's log position, an abort discards it. Idempotent
// per ID.
type TxnOutcome struct {
	ID     string
	Commit bool
}

// TxnDecision records the coordinator's outcome in its home group's log,
// first writer wins: the first decision record ordered for an ID is the
// transaction's outcome forever, and every later record (a retry, or a
// participant-driven presumed-abort racing the real commit) reads it
// back instead of overwriting.
type TxnDecision struct {
	ID     string
	Commit bool
}

// StagedTxn is one prepared branch held by a participant replica,
// awaiting the transaction outcome. It travels with the application
// checkpoint (appSnap) so recovery reconstructs the prepared set.
type StagedTxn struct {
	Home   int
	Action any
	Keys   []string
}

// TxnVoteResult is TxnPrepare's execution result.
type TxnVoteResult struct {
	// Prepared is the vote: true means the branch is staged and its keys
	// are blocked until the outcome.
	Prepared bool

	// Reason is the no-vote explanation (validation failure, or a
	// prepare arriving after the transaction already resolved).
	Reason string
}

// TxnAppliedResult is TxnOutcome's execution result. First is true on the
// record that transitioned the transaction to terminal on this group;
// retried outcome records report false, so outcome counters stay exact
// under retries.
type TxnAppliedResult struct {
	First bool
}

// TxnDecisionResult is TxnDecision's execution result: the recorded
// outcome (which may predate this record — first writer wins) and
// whether this record was the one that decided.
type TxnDecisionResult struct {
	Commit bool
	First  bool
}

// execTxnPrepare applies a TxnPrepare record.
func (r *Replica) execTxnPrepare(a TxnPrepare) TxnVoteResult {
	if r.txnDone[a.ID] {
		// The transaction already resolved here; the outcome stands and a
		// stale duplicate prepare must not re-stage anything.
		return TxnVoteResult{Prepared: false, Reason: "transaction already resolved"}
	}
	if _, ok := r.txnPrepared[a.ID]; ok {
		return TxnVoteResult{Prepared: true} // duplicate of a staged prepare: re-vote yes
	}
	if ts, ok := r.sm.(TxnStager); ok {
		if reason := ts.StageTxn(a.Action); reason != "" {
			// A no-vote stages nothing and blocks nothing. The
			// coordinator's all-yes rule makes the outcome an abort; that
			// later outcome record is what marks the transaction terminal
			// here.
			return TxnVoteResult{Prepared: false, Reason: reason}
		}
	}
	if r.txnPrepared == nil {
		r.txnPrepared = make(map[string]StagedTxn)
	}
	r.txnPrepared[a.ID] = StagedTxn{Home: a.Home, Action: a.Action, Keys: a.Keys}
	if r.cfg.OnTxnStaged != nil {
		r.cfg.OnTxnStaged(a.ID, a.Home)
	}
	return TxnVoteResult{Prepared: true}
}

// reportStaged hands OnTxnStaged every branch of the prepared set, in ID
// order: a checkpoint's set just replaced this replica's, and no prepare
// applied here reported the branches it brought in.
func (r *Replica) reportStaged() {
	if r.cfg.OnTxnStaged == nil {
		return
	}
	for _, id := range detsort.Keys(r.txnPrepared) {
		r.cfg.OnTxnStaged(id, r.txnPrepared[id].Home)
	}
}

// execTxnOutcome applies a TxnOutcome record.
func (r *Replica) execTxnOutcome(a TxnOutcome) TxnAppliedResult {
	if r.txnDone[a.ID] {
		return TxnAppliedResult{} // retried outcome: ordered no-op
	}
	if st, ok := r.txnPrepared[a.ID]; ok {
		delete(r.txnPrepared, a.ID)
		if a.Commit {
			r.sm.Execute(st.Action)
		}
	}
	if r.txnDone == nil {
		r.txnDone = make(map[string]bool)
	}
	r.txnDone[a.ID] = true
	return TxnAppliedResult{First: true}
}

// execTxnDecision applies a TxnDecision record, first writer wins.
func (r *Replica) execTxnDecision(a TxnDecision) TxnDecisionResult {
	if c, ok := r.txnDecisions[a.ID]; ok {
		return TxnDecisionResult{Commit: c}
	}
	if r.txnDecisions == nil {
		r.txnDecisions = make(map[string]bool)
	}
	r.txnDecisions[a.ID] = a.Commit
	return TxnDecisionResult{Commit: a.Commit, First: true}
}

// --- Introspection (loop-confined) --------------------------------------

// HasPreparedTxns reports whether any branch is staged on this replica,
// and TxnPrepared whether the branch of transaction id is: the write path
// asks the first before every write, a resolution loop the second at every
// tick. Loop-confined.
func (r *Replica) HasPreparedTxns() bool { return len(r.txnPrepared) > 0 }

func (r *Replica) TxnPrepared(id string) bool {
	_, ok := r.txnPrepared[id]
	return ok
}

// TxnDecided reports the recorded outcome of a transaction whose home
// group is this replica's: known=false means no decision record has been
// ordered yet. Loop-confined.
func (r *Replica) TxnDecided(id string) (commit, known bool) {
	commit, known = r.txnDecisions[id]
	return commit, known
}

// TxnBlocksInt reports whether the key prefix + decimal(id) conflicts with
// a prepared branch: the tier boundary holds conflicting writes until the
// outcome record releases the key, so the outcome's log position decides
// what the branch observes. The key is spelled in a stack buffer and never
// built: a write asks once per row it may touch while any branch is
// prepared. Loop-confined.
func (r *Replica) TxnBlocksInt(prefix string, id int64) bool {
	var buf [48]byte
	key := strconv.AppendInt(append(buf[:0], prefix...), id, 10)
	for _, st := range r.txnPrepared {
		for _, k := range st.Keys {
			if k == string(key) {
				return true
			}
		}
	}
	return false
}

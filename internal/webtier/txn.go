package webtier

// This file is the deployment half of cross-shard transactions: the 2PC
// driver that coordinates core's transaction records
// (core/txn.go) across Paxos groups. The coordinator is not a separate
// node — it is the home-group application server the proxy routed the
// write to, exactly like any other write; what makes it a coordinator is
// that the action's participants span groups.
//
// Protocol, end to end:
//
//  1. The coordinator resolves all non-determinism up front (pricing,
//     timestamps, random values — paper §4) and splits the action into
//     one branch per participant group.
//  2. If every participant collapses to the coordinator's own group, the
//     merged single-group action is submitted directly — the fast path,
//     bit-identical to the pre-transaction submit path: no transaction
//     records are ordered at all.
//  3. Otherwise each branch is ordered as a core.TxnPrepare in its
//     group's log (the local branch via SubmitIndexed, remote branches
//     via txnPrepareMsg retried across the group's members). Applying a
//     prepare validates and stages the branch; the vote travels back.
//  4. All-yes within the prepare deadline decides commit, anything else
//     decides abort. The coordinator Paxos-commits a core.TxnDecision in
//     its home group BEFORE replying to the client or releasing the
//     outcome: the decision record, not the coordinator's memory, is the
//     transaction's durable outcome.
//  5. The outcome fans out as core.TxnCommit/TxnAbort records, retried
//     until each group acknowledges. Commit executes the staged branch
//     at the outcome record's log position; abort discards it.
//
// Recovery is record-driven, never memory-driven:
//
//   - A participant holding a prepared branch past the resolution grace
//     sends a status inquiry to the home group (rotating members). Any
//     home member answers from the replicated decision state; if no
//     decision exists it Paxos-commits a presumed-abort decision first —
//     first writer wins, so an inquiry racing the coordinator's real
//     commit resolves to whichever record ordered first, and everyone
//     (the coordinator included, which obeys its own submit's recorded
//     result) agrees.
//   - A restarted server rescans core.Replica.PreparedTxns — the staged
//     set is checkpoint-carried and log-replayed — and re-arms a
//     resolution loop per entry, so participant crashes cannot strand a
//     prepared branch.
//   - While a branch is prepared, its conflict keys block ordinary
//     writes at the tier boundary (withTxnGate): a conflicting write
//     waits for the outcome record (bounded), so the outcome's log
//     position, not a racing write, decides what the branch observes.

import (
	"sort"
	"strconv"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

// Transaction pacing. The prepare deadline bounds how long a coordinator
// waits for votes before presuming abort; the resolution grace sits above
// it so a participant only inquires about transactions whose coordinator
// has had every chance to decide. Outcome and prepare sends retry across
// group members, so a single crashed or partitioned member never wedges
// the protocol.
const (
	txnPrepareRetry   = 300 * time.Millisecond
	txnPrepareTimeout = 2 * time.Second
	txnOutcomeRetry   = 500 * time.Millisecond
	txnResolveAfter   = 5 * time.Second
	txnResolvePoll    = 2 * time.Second
	txnBlockRetry     = 10 * time.Millisecond
	txnBlockDeadline  = 2 * time.Second
)

// --- Messages ------------------------------------------------------------

// txnPrepareMsg carries one branch from the coordinator to a member of a
// participant group, which orders it as a core.TxnPrepare.
type txnPrepareMsg struct {
	ID     string
	Home   int // coordinator's group: where decisions live
	Group  int // participant group this branch belongs to
	Action any
	Keys   []string
}

func (m txnPrepareMsg) WireSize() int64 {
	return 256 + int64(len(m.Keys))*32 + tpcw.ActionSize(m.Action)
}

// txnVoteMsg carries a participant group's prepare vote back.
type txnVoteMsg struct {
	ID    string
	Group int
	OK    bool
}

func (m txnVoteMsg) WireSize() int64 { return 128 }

// txnOutcomeMsg carries the decided outcome to a participant group
// member, which orders it as a core.TxnCommit or core.TxnAbort.
type txnOutcomeMsg struct {
	ID     string
	Commit bool
}

func (m txnOutcomeMsg) WireSize() int64 { return 128 }

// txnAckMsg confirms a participant group has ordered the outcome record;
// the coordinator stops retrying that group.
type txnAckMsg struct {
	ID    string
	Group int
}

func (m txnAckMsg) WireSize() int64 { return 128 }

// txnStatusMsg is a participant's resolution inquiry to a home-group
// member: what happened to this transaction?
type txnStatusMsg struct {
	ID string
}

func (m txnStatusMsg) WireSize() int64 { return 128 }

// txnStatusRespMsg answers an inquiry with the recorded outcome. Known is
// always true when sent — an unknown status is resolved by recording a
// presumed abort before answering.
type txnStatusRespMsg struct {
	ID     string
	Known  bool
	Commit bool
}

func (m txnStatusRespMsg) WireSize() int64 { return 128 }

// --- Coordinator ---------------------------------------------------------

// txnBranch is one participant group's share of a transaction.
type txnBranch struct {
	action any
	keys   []string
}

// txnCoord is the coordinator's volatile bookkeeping for one in-flight
// transaction. Losing it (coordinator crash) is safe by design: the
// durable outcome is the decision record, and participants resolve from
// it (or from its absence, as presumed abort) via status inquiries.
type txnCoord struct {
	id        string
	groups    []int // sorted participant groups
	branches  map[int]txnBranch
	votes     map[int]bool
	acked     map[int]bool
	attempts  map[int]int // member rotation per group
	decided   bool
	commit    bool
	onDecided func(commit bool)
}

// runTxn drives one cross-group transaction from this (coordinator)
// server. onDecided fires exactly once, after the decision record is
// durably ordered (or the transaction failed before one could be).
func (s *Server) runTxn(branches map[int]txnBranch, onDecided func(commit bool)) {
	s.txnSeq++
	id := "t" + strconv.Itoa(s.idx) +
		"." + strconv.FormatInt(s.e.Now().UnixNano(), 10) +
		"." + strconv.FormatInt(s.txnSeq, 10)
	groups := make([]int, 0, len(branches))
	for g := range branches {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	co := &txnCoord{
		id:        id,
		groups:    groups,
		branches:  branches,
		votes:     make(map[int]bool, len(groups)),
		acked:     make(map[int]bool, len(groups)),
		attempts:  make(map[int]int, len(groups)),
		onDecided: onDecided,
	}
	if s.txnCoords == nil {
		s.txnCoords = make(map[string]*txnCoord)
	}
	s.txnCoords[id] = co
	for _, g := range groups {
		if g == s.group() {
			br := branches[g]
			gg := g
			s.replica.SubmitIndexed(core.TxnPrepare{ID: id, Home: s.group(), Action: br.action, Keys: br.keys},
				func(result any, _ paxos.InstanceID, err error) {
					vr, ok := result.(core.TxnVoteResult)
					if err == nil && ok && vr.Prepared {
						// The coordinator's own branch is prepared too:
						// arm resolution in case this server wedges
						// between prepare and decision.
						s.armTxnResolve(id, s.group())
					}
					s.txnVote(id, gg, err == nil && ok && vr.Prepared)
				})
		} else {
			s.txnSendPrepare(id, g)
		}
	}
	s.e.After(txnPrepareTimeout, func() { s.txnDecide(id, false) })
}

// txnSendPrepare (re)sends one remote branch, rotating the participant
// group's members until a vote arrives or the transaction decides.
func (s *Server) txnSendPrepare(id string, g int) {
	co := s.txnCoords[id]
	if co == nil || co.decided {
		return
	}
	if _, voted := co.votes[g]; voted {
		return
	}
	members := s.c.groups[g].members
	target := members[co.attempts[g]%len(members)]
	co.attempts[g]++
	br := co.branches[g]
	s.e.Send(target, txnPrepareMsg{ID: id, Home: s.group(), Group: g, Action: br.action, Keys: br.keys})
	s.e.After(txnPrepareRetry, func() { s.txnSendPrepare(id, g) })
}

// txnVote folds one participant group's vote. All-yes decides commit; the
// first no decides abort immediately.
func (s *Server) txnVote(id string, g int, ok bool) {
	co := s.txnCoords[id]
	if co == nil || co.decided {
		return
	}
	if _, seen := co.votes[g]; seen {
		return
	}
	co.votes[g] = ok
	if !ok {
		s.txnDecide(id, false)
		return
	}
	if len(co.votes) == len(co.branches) {
		s.txnDecide(id, true)
	}
}

// txnDecide Paxos-commits the decision record in the coordinator's home
// group, then (and only then) replies to the client and fans the outcome
// out. The recorded outcome — not the wanted one — is obeyed: a
// presumed-abort inquiry racing this commit may have written first, and
// first writer wins.
func (s *Server) txnDecide(id string, commit bool) {
	co := s.txnCoords[id]
	if co == nil || co.decided {
		return
	}
	co.decided = true
	s.replica.SubmitIndexed(core.TxnDecision{ID: id, Commit: commit},
		func(result any, _ paxos.InstanceID, err error) {
			dr, ok := result.(core.TxnDecisionResult)
			if err != nil || !ok {
				// The decision could not be ordered (lost readiness): no
				// commit record can ever exist, so abort is the only safe
				// outcome — participants reach the same conclusion via
				// presumed abort even if these fan-outs are lost too.
				co.commit = false
			} else {
				co.commit = dr.Commit
			}
			if co.onDecided != nil {
				co.onDecided(co.commit)
				co.onDecided = nil
			}
			s.txnFanout(id)
		})
}

// txnFanout releases the decided outcome to every participant group,
// retrying until each acknowledges its ordered outcome record.
func (s *Server) txnFanout(id string) {
	co := s.txnCoords[id]
	if co == nil {
		return
	}
	for _, g := range co.groups {
		if g == s.group() {
			s.txnLocalOutcome(id)
		} else {
			s.txnSendOutcome(id, g)
		}
	}
}

// txnLocalOutcome orders the outcome record in the coordinator's own
// group (its own branch, or the home-group half of a transaction whose
// every other branch is remote), retrying while the replica is unready.
func (s *Server) txnLocalOutcome(id string) {
	co := s.txnCoords[id]
	if co == nil || co.acked[s.group()] {
		return
	}
	s.submitTxnOutcome(id, co.commit, func(applied bool) {
		if !applied {
			s.e.After(txnOutcomeRetry, func() { s.txnLocalOutcome(id) })
			return
		}
		s.txnAck(id, s.group())
	})
}

// txnSendOutcome (re)sends the outcome to a remote participant group,
// rotating members until acknowledged.
func (s *Server) txnSendOutcome(id string, g int) {
	co := s.txnCoords[id]
	if co == nil || co.acked[g] {
		return
	}
	members := s.c.groups[g].members
	target := members[co.attempts[g]%len(members)]
	co.attempts[g]++
	s.e.Send(target, txnOutcomeMsg{ID: id, Commit: co.commit})
	s.e.After(txnOutcomeRetry, func() { s.txnSendOutcome(id, g) })
}

// txnAck marks one participant group resolved; once all are, the
// coordinator forgets the transaction (its durable trace lives in the
// logs).
func (s *Server) txnAck(id string, g int) {
	co := s.txnCoords[id]
	if co == nil {
		return
	}
	co.acked[g] = true
	for _, gg := range co.groups {
		if !co.acked[gg] {
			return
		}
	}
	delete(s.txnCoords, id)
}

// --- Participant ---------------------------------------------------------

// onTxnPrepare orders a remote branch in this participant group's log and
// votes back. A duplicate (the coordinator rotated members, or retried)
// re-votes from the recorded state — core's prepare is idempotent per ID.
func (s *Server) onTxnPrepare(from env.NodeID, m txnPrepareMsg) {
	if s.learner() || s.replica == nil || !s.replica.Ready() {
		return // the coordinator's rotation finds another member
	}
	s.replica.SubmitIndexed(core.TxnPrepare{ID: m.ID, Home: m.Home, Action: m.Action, Keys: m.Keys},
		func(result any, _ paxos.InstanceID, err error) {
			if err != nil {
				return
			}
			vr, ok := result.(core.TxnVoteResult)
			if !ok {
				return
			}
			if vr.Prepared {
				// Staged: if the outcome never arrives (coordinator crash,
				// partition), resolve from the home group's decision state.
				s.armTxnResolve(m.ID, m.Home)
			}
			s.e.Send(from, txnVoteMsg{ID: m.ID, Group: s.group(), OK: vr.Prepared})
		})
}

// onTxnVote folds a remote vote into the coordinator state.
func (s *Server) onTxnVote(m txnVoteMsg) {
	s.txnVote(m.ID, m.Group, m.OK)
}

// onTxnOutcome orders the decided outcome in this participant group's log
// and acknowledges. Acked even when another member already resolved it
// (the record degrades to an ordered no-op) so the coordinator's retry
// loop terminates.
func (s *Server) onTxnOutcome(from env.NodeID, m txnOutcomeMsg) {
	if s.learner() || s.replica == nil || !s.replica.Ready() {
		return
	}
	s.submitTxnOutcome(m.ID, m.Commit, func(applied bool) {
		if !applied {
			return // coordinator retries
		}
		s.e.Send(from, txnAckMsg{ID: m.ID, Group: s.group()})
	})
}

// onTxnAck marks a participant group resolved on the coordinator.
func (s *Server) onTxnAck(m txnAckMsg) {
	s.txnAck(m.ID, m.Group)
}

// onTxnStatus answers a resolution inquiry from the replicated decision
// state of this (home) group. No recorded decision means the coordinator
// died before deciding: a presumed-abort decision is Paxos-committed
// first — first writer wins against any in-flight real decision — and
// the recorded outcome is returned either way. If this group also holds
// a still-prepared branch of the transaction (the coordinator's own
// branch, stranded by its crash), the outcome record is ordered here too
// so the branch's blocked keys release without waiting for a restart.
func (s *Server) onTxnStatus(from env.NodeID, m txnStatusMsg) {
	if s.learner() || s.replica == nil || !s.replica.Ready() {
		return
	}
	answer := func(commit bool) {
		if s.txnStillPrepared(m.ID) {
			s.submitTxnOutcome(m.ID, commit, nil)
		}
		s.e.Send(from, txnStatusRespMsg{ID: m.ID, Known: true, Commit: commit})
	}
	if commit, known := s.replica.TxnDecided(m.ID); known {
		answer(commit)
		return
	}
	s.replica.SubmitIndexed(core.TxnDecision{ID: m.ID, Commit: false},
		func(result any, _ paxos.InstanceID, err error) {
			dr, ok := result.(core.TxnDecisionResult)
			if err != nil || !ok {
				return // inquirer re-asks another member
			}
			answer(dr.Commit)
		})
}

// onTxnStatusResp resolves a prepared branch from an answered inquiry.
func (s *Server) onTxnStatusResp(m txnStatusRespMsg) {
	if !m.Known || s.learner() || s.replica == nil || !s.replica.Ready() {
		return
	}
	s.submitTxnOutcome(m.ID, m.Commit, nil)
}

// submitTxnOutcome orders one TxnCommit/TxnAbort record locally and
// counts the group's transaction outcome exactly once (core reports
// First only on the record that transitioned the transaction to
// terminal, so retries and duplicate resolvers never double-count).
func (s *Server) submitTxnOutcome(id string, commit bool, done func(applied bool)) {
	var action any = core.TxnAbort{ID: id}
	if commit {
		action = core.TxnCommit{ID: id}
	}
	s.replica.SubmitIndexed(action, func(result any, _ paxos.InstanceID, err error) {
		ar, ok := result.(core.TxnAppliedResult)
		if err != nil || !ok {
			if done != nil {
				done(false)
			}
			return
		}
		if ar.First {
			if commit {
				s.c.groups[s.group()].txnCommits++
			} else {
				s.c.groups[s.group()].txnAborts++
			}
		}
		if done != nil {
			done(true)
		}
	})
}

// --- Resolution ----------------------------------------------------------

// armTxnResolve starts (idempotently) the resolution loop for one
// prepared branch: after a grace covering the coordinator's whole healthy
// window, inquire at the home group, rotating members, until the branch
// resolves.
func (s *Server) armTxnResolve(id string, home int) {
	if s.txnArmed == nil {
		s.txnArmed = make(map[string]bool)
		s.txnResolve = make(map[string]int)
	}
	if s.txnArmed[id] {
		return
	}
	s.txnArmed[id] = true
	s.e.After(txnResolveAfter, func() { s.txnResolveTick(id, home) })
}

func (s *Server) txnResolveTick(id string, home int) {
	if !s.txnStillPrepared(id) {
		delete(s.txnArmed, id)
		delete(s.txnResolve, id)
		return
	}
	members := s.c.groups[home].members
	target := members[s.txnResolve[id]%len(members)]
	s.txnResolve[id]++
	s.e.Send(target, txnStatusMsg{ID: id})
	s.e.After(txnResolvePoll, func() { s.txnResolveTick(id, home) })
}

// txnStillPrepared reports whether this server's replica still stages the
// branch (loop-confined; server and replica share the node executor).
func (s *Server) txnStillPrepared(id string) bool {
	return s.replica != nil && s.replica.TxnPrepared(id)
}

// armTxnRecovery rescans the replica's prepared set after (re)start and
// re-arms a resolution loop per stranded branch. The set is
// checkpoint-carried and log-replayed, so a participant crash between
// prepare and outcome always comes back knowing exactly what it holds.
func (s *Server) armTxnRecovery() {
	if s.learner() || s.replica == nil {
		return
	}
	for _, p := range s.replica.PreparedTxns() {
		s.armTxnResolve(p.ID, p.Home)
	}
}

// --- Write gate ----------------------------------------------------------

// txnBlocked reports whether a prepared branch blocks a row key the write
// interaction may touch, in the key syntax branches declare (tpcw.TxnKeys):
// its cart, its customer and gift recipient, the item an admin update
// writes and a sweep's items. The replica is asked by prefix and ID, so no
// key is built.
func (s *Server) txnBlocked(req *rbe.Request) bool {
	r := s.replica
	if (req.Cart != 0 && r.TxnBlocksInt(tpcw.CartPrefix, int64(req.Cart))) ||
		(req.Customer != 0 && r.TxnBlocksInt(tpcw.CustomerPrefix, int64(req.Customer))) ||
		(req.Peer != 0 && r.TxnBlocksInt(tpcw.CustomerPrefix, int64(req.Peer))) ||
		(req.Kind == rbe.AdminConfirm && req.Item != 0 && r.TxnBlocksInt(tpcw.ItemPrefix, int64(req.Item))) {
		return true
	}
	for _, it := range req.Items {
		if r.TxnBlocksInt(tpcw.ItemPrefix, int64(it)) {
			return true
		}
	}
	return false
}

// withTxnGate holds a write whose keys conflict with a prepared branch
// until the branch's outcome record releases them (or the bounded wait
// expires into a client error). With no prepared transactions — always
// the case on the single-group fast path — the write proceeds through
// the exact same immediate call, adding no events and no latency. Either
// way the request leaves through gated or drop.
func (s *Server) withTxnGate(r *request) {
	if !s.replica.HasPreparedTxns() {
		r.gated()
		return
	}
	if !s.txnBlocked(&r.m.Req) {
		r.gated()
		return
	}
	start := s.e.Now()
	deadline := start.Add(txnBlockDeadline)
	accrue := func() {
		s.c.groups[s.group()].txnBlockedNs += s.e.Now().Sub(start).Nanoseconds()
	}
	var retry func()
	retry = func() {
		if s.replica == nil || !s.replica.Ready() {
			accrue()
			r.drop()
			return
		}
		if !s.txnBlocked(&r.m.Req) {
			accrue()
			r.gated()
			return
		}
		if !s.e.Now().Before(deadline) {
			accrue()
			r.drop()
			return
		}
		s.e.After(txnBlockRetry, retry)
	}
	s.e.After(txnBlockRetry, retry)
}

// --- Multi-shard write interactions --------------------------------------

// CustomerGroup and ItemGroup expose the base-population rows' home
// groups under the current routing epoch, so workloads and audits can
// pick counterparties whose rows live on (or off) a session's group. The
// IDs of base-population rows are cluster-global (every group's initial
// store holds them identically): the routing table's hash of the row key
// defines the row's home group. Session-created rows (carts, registered
// customers) instead live where their session routes — their per-group ID
// counters make raw IDs ambiguous across groups — which is why the gift
// workload draws buyers' carts from the session's own group and
// recipients from the base population.
func (c *Cluster) CustomerGroup(id tpcw.CustomerID) int {
	_, g := c.table.RouteInt(tpcw.CustomerPrefix, int64(id))
	return g
}

func (c *Cluster) ItemGroup(id tpcw.ItemID) int {
	_, g := c.table.RouteInt(tpcw.ItemPrefix, int64(id))
	return g
}

// performGiftPurchase serves the cross-session gift order: the buyer's
// cart (on this, the coordinator's, group) is purchased for a recipient
// whose home group may differ. Same group → the merged GiftOrderAction on
// the plain submit path; different groups → a debit branch here and a
// deliver branch there under 2PC. All pricing is resolved here, before
// anything is submitted, so both branches carry identical totals.
func (s *Server) performGiftPurchase(r *request) {
	req, now, cart := &r.m.Req, r.now, r.cart
	lines, subTotal, tax, total, errs := s.store.GiftQuote(cart, req.Customer, req.Tag)
	if errs != "" {
		r.fail()
		return
	}
	ship := now.AddDate(0, 0, 1+s.e.Rand().Intn(7)) // random pre-submit
	rg := s.c.CustomerGroup(req.Peer)
	if rg == s.group() {
		// Single-group fast path: the merged action, plain submit, no
		// transaction records — bit-identical to the pre-2PC path.
		s.replica.SubmitIndexed(tpcw.GiftOrderAction{
			Cart: cart, Buyer: req.Customer, Recipient: req.Peer,
			ShipType: "AIR", ShipDate: ship, Tag: req.Tag, Now: now,
		}, r.applied)
		return
	}
	debit := tpcw.GiftDebitAction{Cart: cart, Buyer: req.Customer, Total: total, Tag: req.Tag, Now: now}
	deliver := tpcw.GiftDeliverAction{
		Recipient: req.Peer, Lines: lines,
		SubTotal: subTotal, Tax: tax, Total: total,
		ShipType: "AIR", ShipDate: ship, Tag: req.Tag, Now: now,
	}
	s.runTxn(map[int]txnBranch{
		s.group(): {action: debit, keys: tpcw.TxnKeys(debit)},
		rg:        {action: deliver, keys: tpcw.TxnKeys(deliver)},
	}, r.decided)
}

// decided replies to a cross-group write once its decision record is
// ordered. No single commit index spans two groups; the fence stays where
// the session's last single-group write left it.
func (r *request) decided(commit bool) {
	if !commit {
		r.fail()
		return
	}
	r.reply(rbe.Response{}, 0)
}

// performStockSweep serves the admin inventory sweep: reprice an item set
// to one cost atomically, the items partitioned across their home groups
// by the routing table. All-local → one plain InventorySweepAction;
// spanning groups → one branch per group under 2PC, the unique cost
// doubling as the half-application audit marker.
func (s *Server) performStockSweep(r *request) {
	req, now := &r.m.Req, r.now
	if len(req.Items) == 0 {
		r.fail()
		return
	}
	byGroup := make(map[int][]tpcw.ItemID)
	for _, id := range req.Items {
		g := s.c.ItemGroup(id)
		byGroup[g] = append(byGroup[g], id)
	}
	if len(byGroup) == 1 {
		if items, local := byGroup[s.group()]; local {
			// Single-group fast path, plain submit, no records.
			s.replica.SubmitIndexed(tpcw.InventorySweepAction{Items: items, Cost: req.Cost, Tag: req.Tag, Now: now}, r.applied)
			return
		}
	}
	branches := make(map[int]txnBranch, len(byGroup))
	for g, items := range byGroup {
		a := tpcw.InventorySweepAction{Items: items, Cost: req.Cost, Tag: req.Tag, Now: now}
		branches[g] = txnBranch{action: a, keys: tpcw.TxnKeys(a)}
	}
	s.runTxn(branches, r.decided)
}

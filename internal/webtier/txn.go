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
//  1. A write handler resolves all non-determinism up front (pricing,
//     timestamps, random values — paper §4) and splits the action into
//     one share per group it touches, then hands the shares to runTxn.
//  2. runTxn alone decides whether the write needs 2PC: a write whose only
//     share lies on the coordinator's own group is submitted like any
//     other write and orders no transaction record. Any other write runs
//     the steps below, one branch per share.
//  3. Each branch is ordered as a core.TxnPrepare in its group's log (the
//     local branch via SubmitIndexed, remote branches via txnPrepareMsg
//     retried across the group's members). Applying a prepare validates
//     and stages the branch; the vote travels back.
//  4. All-yes within the prepare deadline decides commit, anything else
//     decides abort. The coordinator Paxos-commits a core.TxnDecision in
//     its home group BEFORE replying to the client or releasing the
//     outcome: the decision record, not the coordinator's memory, is the
//     transaction's durable outcome.
//  5. The outcome fans out as core.TxnOutcome records, retried until each
//     group acknowledges. Commit executes the staged branch at the outcome
//     record's log position; abort discards it.
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
//   - The resolution loop is armed by one hook, core.Config.OnTxnStaged,
//     which reports every branch entering a replica's prepared set: by a
//     prepare record, live or replayed, or by a checkpoint, restored from
//     local disk or installed from a peer. The set is checkpoint-carried
//     and log-replayed, so participant crashes cannot strand a prepared
//     branch.
//   - While a branch is prepared, its conflict keys block ordinary
//     writes at the tier boundary (withTxnGate): a conflicting write
//     waits for the outcome record (bounded), so the outcome's log
//     position, not a racing write, decides what the branch observes.

import (
	"strconv"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/detsort"
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
// member, which orders it as a core.TxnOutcome.
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

// txnStatusRespMsg answers an inquiry with the recorded outcome: an unknown
// status is resolved by recording a presumed abort before answering.
type txnStatusRespMsg struct {
	ID     string
	Commit bool
}

func (m txnStatusRespMsg) WireSize() int64 { return 128 }

// --- Coordinator ---------------------------------------------------------

// txnPart is one participant group's record in a transaction: its branch
// and how far the coordinator got with it.
type txnPart struct {
	group    int
	action   any
	keys     []string
	voted    bool // a yes-vote arrived (a no decides abort at once)
	acked    bool // the group ordered the outcome record
	attempts int  // member rotation for prepare and outcome sends
}

// txnCoord is the coordinator's volatile bookkeeping for one in-flight
// transaction. Losing it (coordinator crash) is safe by design: the
// durable outcome is the decision record, and participants resolve from
// it (or from its absence, as presumed abort) via status inquiries.
type txnCoord struct {
	id        string
	parts     []txnPart // one per participant group, sorted by group
	decided   bool
	commit    bool
	onDecided func(commit bool)
}

// part returns group g's record, or nil if g takes no part.
func (co *txnCoord) part(g int) *txnPart {
	for i := range co.parts {
		if co.parts[i].group == g {
			return &co.parts[i]
		}
	}
	return nil
}

// runTxn submits a write given as its shares, one action per group it
// touches, and answers r. A write whose only share lies on this server's
// group is submitted plainly: no transaction record is ordered, and the
// reply carries the write's commit index for the session's fence. Any other
// write runs two-phase commit from this (coordinator) server and is
// answered once its decision record is ordered.
func (s *Server) runTxn(r *request, shares map[int]any) {
	if a, local := shares[s.group()]; local && len(shares) == 1 {
		s.replica.SubmitIndexed(a, r.applied)
		return
	}
	s.txnSeq++
	id := "t" + strconv.Itoa(s.idx) +
		"." + strconv.FormatInt(s.e.Now().UnixNano(), 10) +
		"." + strconv.FormatInt(s.txnSeq, 10)
	co := &txnCoord{id: id, parts: make([]txnPart, 0, len(shares)), onDecided: r.decided}
	for _, g := range detsort.Keys(shares) {
		co.parts = append(co.parts, txnPart{group: g, action: shares[g], keys: tpcw.TxnKeys(shares[g])})
	}
	if s.txnCoords == nil {
		s.txnCoords = make(map[string]*txnCoord)
	}
	s.txnCoords[id] = co
	for _, p := range co.parts {
		if p.group != s.group() {
			s.txnSendPrepare(id, p.group)
			continue
		}
		s.replica.SubmitIndexed(core.TxnPrepare{ID: id, Home: s.group(), Action: p.action, Keys: p.keys},
			func(result any, _ paxos.InstanceID, err error) {
				vr, ok := result.(core.TxnVoteResult)
				s.txnVote(id, s.group(), err == nil && ok && vr.Prepared)
			})
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
	p := co.part(g)
	if p.voted {
		return
	}
	members := s.c.groups[g].members
	target := members[p.attempts%len(members)]
	p.attempts++
	s.e.Send(target, txnPrepareMsg{ID: id, Home: s.group(), Group: g, Action: p.action, Keys: p.keys})
	s.e.After(txnPrepareRetry, func() { s.txnSendPrepare(id, g) })
}

// txnVote folds one participant group's vote. All-yes decides commit; the
// first no decides abort immediately.
func (s *Server) txnVote(id string, g int, ok bool) {
	co := s.txnCoords[id]
	if co == nil || co.decided {
		return
	}
	p := co.part(g)
	if p == nil || p.voted {
		return
	}
	if !ok {
		s.txnDecide(id, false)
		return
	}
	p.voted = true
	for _, q := range co.parts {
		if !q.voted {
			return
		}
	}
	s.txnDecide(id, true)
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
	for _, p := range co.parts {
		if p.group == s.group() {
			s.txnLocalOutcome(id)
		} else {
			s.txnSendOutcome(id, p.group)
		}
	}
}

// txnLocalOutcome orders the outcome record of the coordinator's own
// branch in its group, retrying while the replica is unready.
func (s *Server) txnLocalOutcome(id string) {
	co := s.txnCoords[id]
	if co == nil || co.part(s.group()).acked {
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
	if co == nil {
		return
	}
	p := co.part(g)
	if p.acked {
		return
	}
	members := s.c.groups[g].members
	target := members[p.attempts%len(members)]
	p.attempts++
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
	if p := co.part(g); p != nil {
		p.acked = true
	}
	for _, p := range co.parts {
		if !p.acked {
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
			if vr, ok := result.(core.TxnVoteResult); err == nil && ok {
				s.e.Send(from, txnVoteMsg{ID: m.ID, Group: s.group(), OK: vr.Prepared})
			}
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
		s.e.Send(from, txnStatusRespMsg{ID: m.ID, Commit: commit})
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
	if s.learner() || s.replica == nil || !s.replica.Ready() {
		return
	}
	s.submitTxnOutcome(m.ID, m.Commit, nil)
}

// submitTxnOutcome orders one TxnOutcome record locally and counts the
// group's transaction outcome exactly once (core reports First only on the
// record that transitioned the transaction to terminal, so retries and
// duplicate resolvers never double-count).
func (s *Server) submitTxnOutcome(id string, commit bool, done func(applied bool)) {
	s.replica.SubmitIndexed(core.TxnOutcome{ID: id, Commit: commit}, func(result any, _ paxos.InstanceID, err error) {
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
// resolves. Its one caller is the replica's OnTxnStaged hook.
func (s *Server) armTxnResolve(id string, home int) {
	if _, armed := s.txnArmed[id]; armed {
		return
	}
	if s.txnArmed == nil {
		s.txnArmed = make(map[string]int)
	}
	s.txnArmed[id] = 0
	s.e.After(txnResolveAfter, func() { s.txnResolveTick(id, home) })
}

func (s *Server) txnResolveTick(id string, home int) {
	if !s.txnStillPrepared(id) {
		delete(s.txnArmed, id)
		return
	}
	members := s.c.groups[home].members
	target := members[s.txnArmed[id]%len(members)]
	s.txnArmed[id]++
	s.e.Send(target, txnStatusMsg{ID: id})
	s.e.After(txnResolvePoll, func() { s.txnResolveTick(id, home) })
}

// txnStillPrepared reports whether this server's replica still stages the
// branch (loop-confined; server and replica share the node executor).
func (s *Server) txnStillPrepared(id string) bool {
	return s.replica != nil && s.replica.TxnPrepared(id)
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
// expires into a client error). With no prepared branch on this replica
// the write proceeds through the same immediate call, adding no events
// and no latency. Either way the request leaves through gated or drop.
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
// whose home group may differ. The debit part is this group's share and
// the delivery part the recipient's group's; one group holding both gets
// one action with both parts. All pricing is resolved here, once, before
// anything is submitted, so both parts carry identical totals.
func (s *Server) performGiftPurchase(r *request) {
	req, now := &r.m.Req, r.now
	lines, subTotal, tax, total, errs := s.store.GiftQuote(r.cart, req.Customer, req.Tag)
	if errs != "" {
		r.fail()
		return
	}
	gift := tpcw.GiftAction{
		Cart: r.cart, Buyer: req.Customer, Recipient: req.Peer, Lines: lines,
		SubTotal: subTotal, Tax: tax, Total: total,
		ShipType: "AIR", ShipDate: now.AddDate(0, 0, 1+s.e.Rand().Intn(7)), // random pre-submit
		Tag: req.Tag, Now: now,
	}
	parts := map[int]tpcw.GiftParts{}
	parts[s.group()] |= tpcw.GiftDebit
	parts[s.c.CustomerGroup(req.Peer)] |= tpcw.GiftDeliver
	shares := make(map[int]any, len(parts))
	for g, p := range parts {
		gift.Parts = p
		shares[g] = gift
	}
	s.runTxn(r, shares)
}

// decided replies to a write run under 2PC once its decision record is
// ordered. No single commit index spans two groups; the fence stays where
// the session's last plainly submitted write left it.
func (r *request) decided(commit bool) {
	if !commit {
		r.fail()
		return
	}
	r.reply(rbe.Response{}, 0)
}

// performStockSweep serves the admin inventory sweep: reprice an item set
// to one cost atomically, the items partitioned across their home groups
// by the routing table, one share per group, the unique cost doubling as
// the half-application audit marker.
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
	shares := make(map[int]any, len(byGroup))
	for g, items := range byGroup {
		shares[g] = tpcw.InventorySweepAction{Items: items, Cost: req.Cost, Tag: req.Tag, Now: now}
	}
	s.runTxn(r, shares)
}

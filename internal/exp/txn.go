package exp

// Cross-shard transaction faultload experiments (the measurement side of
// cross-shard transactions): a deterministic driver issues gift purchases and
// inventory sweeps — the two multi-shard write interactions — alongside
// the RBE load while the faultload attacks the 2PC window, and an
// end-of-run audit proves atomicity from the surviving state: every
// transaction either happened everywhere or nowhere, exactly once.
//
// The audit's reading of replies is deliberately asymmetric. An OK reply
// is a commit promise — the decision record was Paxos-committed before
// the reply — so the effects must exist, exactly once. An error reply or
// a missing reply is NOT an abort promise: the proxy may have lost the
// response of a transaction that committed, or given up while the
// outcome was still resolving. Those transactions may legitimately land
// either way; what they may never do is half-land or double-land.

import (
	"fmt"
	"math/rand"
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
	"robuststore/internal/webtier"
)

// TxnAudit is the cross-shard transaction atomicity report of one run.
// The violation classes — Lost, Duplicated, HalfApplied — must stay zero
// under every faultload; the outcome counters describe, not judge.
type TxnAudit struct {
	Issued     int // transactions the driver submitted
	CrossShard int // of those, how many spanned ≥ 2 groups

	Committed  int // effects present (and, when replied OK, promised)
	Aborted    int // no effects present, no commit promise broken
	Unresolved int // no reply and state unobservable — counted, not judged

	Lost        int // replied OK but no effect survives anywhere
	Duplicated  int // effect applied more than once
	HalfApplied int // effect on some participant groups but not others
}

// Violations returns the total atomicity violations.
func (a TxnAudit) Violations() int { return a.Lost + a.Duplicated + a.HalfApplied }

// txnRecord tracks one driven transaction from issue to audit.
type txnRecord struct {
	gift  bool
	tag   string
	cross bool

	// Gift: the recipient row's home group, where the tagged order must
	// appear. Sweep: the swept items partitioned by home group, and the
	// unique cost that marks application.
	group int
	items map[int][]tpcw.ItemID
	cost  float64

	// reused marks a sweep whose item block wrapped the item space (only
	// at transaction rates far past the suite's): a later sweep may
	// legitimately overwrite its tags, so it is not violation-judged.
	reused bool

	replied bool
	ok      bool
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// txnDriver issues the transaction workload on the simulation loop and
// audits it after the run. All mutable state is touched only from sim
// callbacks (issue) or after the simulation stopped (audit).
type txnDriver struct {
	cfg     RunConfig
	cluster *webtier.Cluster
	recs    []*txnRecord
}

// startTxnDriver schedules cfg.TxnRate transactions per second of
// measured time, spread uniformly over the measurement interval,
// alternating gift purchases and inventory sweeps. Determinism: one
// seeded source drawn in schedule order on the simulation loop.
func startTxnDriver(cfg RunConfig, cluster *webtier.Cluster, s *sim.Sim,
	t0 time.Time, info tpcw.PopulationInfo) *txnDriver {
	d := &txnDriver{cfg: cfg, cluster: cluster}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)*7919 + 271))
	n := int(cfg.TxnRate * cfg.Measure.Seconds())
	if n < 1 {
		n = 1
	}
	interval := cfg.Measure / time.Duration(n)
	for k := 0; k < n; k++ {
		k := k
		s.At(t0.Add(rampUp+time.Duration(k)*interval), func() {
			d.issue(k, rng, info)
		})
	}
	return d
}

// issue submits transaction k. Sessions live off the RBE client-id space
// (1e6+) so the transaction load never collides with a browser session.
func (d *txnDriver) issue(k int, rng *rand.Rand, info tpcw.PopulationInfo) {
	client := int64(1_000_000 + k)
	if k%2 == 0 {
		// Gift purchase: buyer's session coordinates, recipient's home
		// group participates. A recipient routed onto the session's group
		// is redrawn, up to 64 times, so with two groups every gift runs
		// 2PC in practice; webtier.TestTxnFastPathOrdersNoRecords, not
		// this experiment, exercises a gift whose two parts share a group.
		home := d.cluster.GroupOf(client)
		peer := tpcw.CustomerID(1 + rng.Intn(info.Customers))
		for try := 0; try < 64 && d.cluster.CustomerGroup(peer) == home && d.cfg.Shards > 1; try++ {
			peer = tpcw.CustomerID(1 + rng.Intn(info.Customers))
		}
		rec := &txnRecord{
			gift:  true,
			tag:   fmt.Sprintf("txn-gift-%d", k),
			group: d.cluster.CustomerGroup(peer),
			cross: d.cluster.CustomerGroup(peer) != home,
		}
		d.recs = append(d.recs, rec)
		d.cluster.Frontend().Do(rbe.Request{
			Client:   client,
			Kind:     rbe.GiftPurchase,
			Customer: tpcw.CustomerID(1 + rng.Intn(info.Customers)),
			Peer:     peer,
			Item:     tpcw.ItemID(1 + rng.Intn(info.Items)),
			Tag:      rec.tag,
		}, func(resp rbe.Response) { rec.replied, rec.ok = true, !resp.Err })
		return
	}
	// Inventory sweep: reprice a small item set to one unique cost, the
	// sweep's audit tag stamped on every repriced item. Each sweep takes
	// its own disjoint block of the item space, so no later sweep can
	// overwrite an earlier sweep's tag and confuse the audit. The hash
	// router scatters consecutive IDs, so nearly every block spans both
	// groups, and no experiment or workload draws an all-local one:
	// webtier.TestTxnFastPathOrdersNoRecords, not this experiment,
	// exercises a write whose one share is on the coordinator's group.
	j := k / 2 // sweep ordinal
	reused := (j+1)*4 > info.Items
	base := 1 + (j*4)%maxInt(info.Items-3, 1)
	items := make([]tpcw.ItemID, 0, 4)
	byGroup := map[int][]tpcw.ItemID{}
	for i := 0; i < 4; i++ {
		id := tpcw.ItemID(base + i)
		items = append(items, id)
		g := d.cluster.ItemGroup(id)
		byGroup[g] = append(byGroup[g], id)
	}
	rec := &txnRecord{
		tag:    fmt.Sprintf("txn-sweep-%d", k),
		items:  byGroup,
		cost:   1e5 + float64(k),
		cross:  len(byGroup) > 1,
		reused: reused,
	}
	d.recs = append(d.recs, rec)
	d.cluster.Frontend().Do(rbe.Request{
		Client: client,
		Kind:   rbe.StockSweep,
		Items:  items,
		Cost:   rec.cost,
		Tag:    rec.tag,
	}, func(resp rbe.Response) { rec.replied, rec.ok = true, !resp.Err })
}

// groupStores returns group g's live replica stores (crashed members
// still down at audit time are skipped).
func (d *txnDriver) groupStores(g int) []*tpcw.Store {
	var out []*tpcw.Store
	for _, i := range d.cluster.Voters(g) {
		if st := d.cluster.Store(i); st != nil {
			out = append(out, st)
		}
	}
	return out
}

// taggedOn returns the most-advanced replica's count of orders carrying
// the tag on group g — "any replica applied it" is the group's decided
// state, since application only ever follows the durable outcome record.
func (d *txnDriver) taggedOn(g int, tag string) int {
	max := 0
	for _, st := range d.groupStores(g) {
		if n := st.OrdersTagged(tag); n > max {
			max = n
		}
	}
	return max
}

// sweptOn reports whether group g applied the sweep branch: some replica
// shows every swept item it owns stamped with the sweep's tag (the tag
// survives later ordinary repricing; item blocks are disjoint across
// sweeps). Per replica the branch is one atomic action, so all-or-nothing
// holds within a replica.
func (d *txnDriver) sweptOn(g int, items []tpcw.ItemID, tag string) bool {
	for _, st := range d.groupStores(g) {
		all := true
		for _, id := range items {
			it, ok := st.GetBook(id)
			if !ok || it.SweptTag != tag {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// audit classifies every driven transaction from the surviving state.
// Call only after the simulation stopped (the drain tail gives stranded
// transactions their resolution window first).
func (d *txnDriver) audit() TxnAudit {
	a := TxnAudit{}
	for _, rec := range d.recs {
		a.Issued++
		if rec.cross {
			a.CrossShard++
		}
		if rec.gift {
			d.auditGift(rec, &a)
		} else {
			d.auditSweep(rec, &a)
		}
	}
	return a
}

func (d *txnDriver) auditGift(rec *txnRecord, a *TxnAudit) {
	if len(d.groupStores(rec.group)) == 0 {
		a.Unresolved++ // recipient group unobservable; nothing to judge
		return
	}
	on := d.taggedOn(rec.group, rec.tag)
	off := 0
	for g := 0; g < d.cfg.Shards; g++ {
		if g != rec.group {
			off += d.taggedOn(g, rec.tag)
		}
	}
	total := on + off
	if total > 1 {
		a.Duplicated++
	} else if off > 0 {
		a.HalfApplied++ // the one order landed on the wrong group
	}
	switch {
	case rec.replied && rec.ok:
		a.Committed++
		if total == 0 {
			a.Lost++ // OK reply is a commit promise
		}
	case rec.replied:
		// Error reply: outcome unknown, either way is legitimate.
		if total > 0 {
			a.Committed++
		} else {
			a.Aborted++
		}
	default:
		a.Unresolved++
	}
}

func (d *txnDriver) auditSweep(rec *txnRecord, a *TxnAudit) {
	if rec.reused {
		a.Unresolved++ // wrapped item block: tags not uniquely attributable
		return
	}
	applied, missing, blind := 0, 0, 0
	for g, items := range rec.items {
		if len(d.groupStores(g)) == 0 {
			blind++
			continue
		}
		if d.sweptOn(g, items, rec.tag) {
			applied++
		} else {
			missing++
		}
	}
	if blind > 0 {
		a.Unresolved++ // some participant group unobservable
		return
	}
	if applied > 0 && missing > 0 {
		a.HalfApplied++ // the violation no reply can excuse
	}
	switch {
	case rec.replied && rec.ok:
		a.Committed++
		if applied == 0 {
			a.Lost++
		}
	case rec.replied:
		if applied > 0 {
			a.Committed++
		} else {
			a.Aborted++
		}
	default:
		a.Unresolved++
	}
}

// --- Transaction faultload scenarios -------------------------------------

// TxnCoordinatorCrash kills group 0's consensus leader — the member
// coordinating most of group 0's cross-shard transactions — at t=270 s,
// mid-measurement: transactions in flight between prepare and commit lose
// their coordinator and must resolve from the replicated decision state
// (recorded outcome, or presumed abort) after the auto-restart.
func TxnCoordinatorCrash() Faultload {
	return Faultload{Name: "txn-coordinator-crash", Events: []FaultEvent{
		{AtSec: 270, Op: OpCrash, Select: Leader(0)},
	}}
}

// TxnCoordinatorPartition severs participant group 1 from the cluster
// from t=240 s to t=330 s: prepares (and outcome fan-outs) into group 1
// time out, coordinators presume abort, and prepared branches stranded
// inside group 1 resolve by inquiry after the heal — all while group 1's
// members keep running with no state lost.
func TxnCoordinatorPartition() Faultload {
	return Faultload{Name: "txn-coordinator-partition", Events: []FaultEvent{
		{AtSec: 240, Op: OpPartition, Select: WholeGroup(1)},
		{AtSec: 330, Op: OpHeal, Select: WholeGroup(1)},
	}}
}

// TxnParticipantCrash kills group 1's consensus leader at t=270 s: the
// participant most likely to hold prepared branches dies holding them,
// replays its log on restart (prepares included, their keys re-blocked)
// and resolves them from the home groups' decision records.
func TxnParticipantCrash() Faultload {
	return Faultload{Name: "txn-participant-crash", Events: []FaultEvent{
		{AtSec: 270, Op: OpCrash, Select: Leader(1)},
	}}
}

// TxnFaultloads returns the named transaction-window scenario set: each
// fault is aimed at a different edge of the 2PC window (coordinator
// death after prepare, participant unreachable, participant death while
// prepared). All run with the transaction driver on.
func TxnFaultloads() []Faultload {
	return []Faultload{
		TxnCoordinatorCrash(),
		TxnCoordinatorPartition(),
		TxnParticipantCrash(),
	}
}

// TxnSuite runs base, a sharded deployment, under every
// transaction-window scenario with the cross-shard transaction driver on
// (TxnRate 2/s) and returns the per-scenario results, each carrying the
// atomicity audit (RunResult.Txn) and the per-group transaction counters.
func TxnSuite(base RunConfig) []RunResult {
	base.TxnRate = 2
	return Suite(base, TxnFaultloads())
}

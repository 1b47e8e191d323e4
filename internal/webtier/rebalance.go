package webtier

import (
	"time"

	"robuststore/internal/core"
	"robuststore/internal/shard"
)

// This file is the web tier's side of a live migration; the protocol and
// its correctness argument are shard/migrate.go's, shared with shard.Store.
// Rebalance boots one more Paxos group of application servers mid-run and
// hands it to a shard.Migration. What is the web tier's own:
//
//   - clients are the partition unit, so the freeze holds *writes of
//     moving sessions* at the proxy (requeued, not failed — the client
//     sees latency, never an error) while reads keep flowing to the
//     source group (dual-epoch routing during the handoff);
//   - because rows are created under per-group ID counters and actions
//     do not carry their session, the keyed transfer moves the rows whose
//     own partition key ("cart/N", "customer/N", "item/N") lands in a
//     moving slice. A moved session whose cart's row key did not move
//     sees one failed cart interaction after cutover and starts a fresh
//     cart (the RBE models exactly that shopper behaviour); a
//     row-addressed tier (shard.Store) migrates with zero loss;
//   - no source drops what it handed over: rows are shared across session
//     slices — every group's store starts from the full population clone,
//     and any of a group's sessions may read any population row — so a
//     drop keyed by moved row slices would delete rows the source group's
//     remaining sessions still serve. The source copies of moved rows
//     simply stop being written (their writers now commit on the new
//     group), the same bounded divergence the soft-replicated catalog has.
//
// A server that receives a request for a session its group no longer
// owns answers WrongEpoch, and the proxy transparently redispatches under
// the current table (proxy.go) — the cutover race costs a hop, never a
// client error.

// The migration vocabulary is shard's.
type (
	RebalanceOptions = shard.RebalanceOptions
	MigrationStat    = shard.MigrationStatus
)

// Migration returns the current (or last) migration status. Simulator
// context.
func (c *Cluster) Migration() MigrationStat {
	st := c.mig.Status()
	st.Epoch = c.table.Epoch
	return st
}

// drainCap bounds how long the proxy-level drain waits for in-flight
// writes of moving sessions before fencing the source logs anyway (a
// request stuck until its 10 s timeout would otherwise hold the window
// open; the barrier still orders everything that reached a replica).
const drainCap = 3 * time.Second

// Rebalance adds one Paxos group of Servers application servers and
// live-migrates its share of the session slices to it. Must be called
// from simulator context; progress is event-driven. Calling it again
// while a migration is active panics (one epoch change at a time).
func (c *Cluster) Rebalance(opts RebalanceOptions) {
	if c.cfg.Readers > 0 {
		// The readers sit past the voter range (layout.go), where a grown
		// group's servers would collide with them. Session fences are also
		// per-group log indices, which a cutover would invalidate.
		panic("webtier: Rebalance is not supported with Readers > 0")
	}
	if c.mig.Status().Active {
		panic("webtier: Rebalance while a migration is active")
	}

	// Register and boot the new group's servers. The group's membership
	// must be complete before any of them starts; AddNode+Restart are
	// synchronous here, the Start events run afterwards.
	newGroup := c.addGroup()
	if c.proxy != nil {
		c.proxy.grow()
	}
	for _, id := range c.groups[newGroup].members {
		c.sim.Restart(id)
	}
	c.mig = shard.NewMigration(clusterHost{c}, c.table, newGroup, false, opts)
	c.mig.Start()
}

// clusterHost is the Cluster as a shard.MigrationHost; everything is
// simulator-loop confined.
type clusterHost struct{ c *Cluster }

func (h clusterHost) After(d time.Duration, fn func()) { h.c.sim.After(d, fn) }
func (h clusterHost) Now() time.Time                   { return h.c.sim.Now() }
func (h clusterHost) Publish(next shard.RoutingTable)  { h.c.table = next }

// Order prefers the group's consensus leader among its accepting servers.
func (h clusterHost) Order(g int, action any, done func(core.StateMachine)) {
	var target *core.Replica
	for _, i := range h.c.Voters(g) {
		if !h.c.accepting(i) {
			continue
		}
		if r := h.c.Replica(i); target == nil || !target.LeaderHint() && r.LeaderHint() {
			target = r
		}
	}
	if target != nil {
		target.SubmitFrom(action, func(_ any, err error) {
			if err == nil {
				done(target.Machine())
			}
		})
	}
}

// Booted: the whole new group is up (members operational, leader elected).
func (h clusterHost) Booted() bool {
	c := h.c
	leader := false
	for _, i := range c.Voters(len(c.groups) - 1) {
		if !c.accepting(i) {
			return false
		}
		leader = leader || c.Replica(i).LeaderHint()
	}
	return leader
}

// Drained: no write of a moving session is in flight at the proxy, or
// drainCap has passed since the freeze.
func (h clusterHost) Drained() bool {
	c := h.c
	if p := c.proxy; p != nil && c.sim.Now().Sub(c.mig.Status().StartedAt) < drainCap {
		for _, r := range p.outstanding {
			if r.req.Kind.IsWrite() && c.sessionFrozen(r.req.Client) {
				return false
			}
		}
	}
	return true
}

package webtier

import (
	"io"
	"slices"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/shard"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
)

// Config parameterizes a simulated RobustStore deployment: k server
// replicas plus one proxy node on one switch (paper Figure 2), optionally
// scaled out across several independent Paxos groups (shards).
type Config struct {
	// Servers is the replication degree of each group (paper: 4–12).
	Servers int

	// Shards partitions the deployment across this many independent
	// Paxos groups of Servers replicas each. The proxy routes each
	// client session to its owning group (internal/shard key hash), so
	// every group serves a disjoint slice of the client population over
	// its own store partition. Default 1 — the paper's single-group
	// deployment, bit-for-bit unchanged.
	Shards int

	// Readers boots this many learner-backed read-only servers per group:
	// full application servers whose replica is a non-voting Paxos
	// learner — it applies the ordered log and checkpoints but never
	// votes, proposes or counts toward quorum, so added readers cost no
	// WAL-quorum latency. The proxy balances reads per-request across
	// voters + readers and attaches each session's commit-index fence
	// (read-your-writes); writes still go to voters only. Default 0 —
	// reads then rotate across the group's voters alone, still fenced,
	// so non-leader voters serve read-your-writes-safe reads too.
	Readers int

	// FastPaxos enables Treplica's fast mode (core.Config.FastPaxos); a
	// group of three or fewer servers runs classic rounds regardless, and a
	// larger one does while a live server is reading its checkpoint.
	FastPaxos bool

	// Store builds the populated bookstore for a (re)starting server.
	Store func() *tpcw.Store

	// Cal is the hardware performance model.
	Cal Calibration

	// CheckpointInterval and RetainInstances configure Treplica
	// checkpointing (see core.Config).
	CheckpointInterval time.Duration
	RetainInstances    int64

	// FullCheckpoints makes every checkpoint a full base instead of a
	// delta layer on the last one — a preset of the one checkpoint path
	// (core.Config.MaxDeltaChain < 0), the comparison baseline of
	// exp.CheckpointCurve.
	FullCheckpoints bool

	// Paxos carries engine tuning overrides.
	Paxos paxos.Config

	// SequentialRecovery disables Treplica's parallel recovery
	// (ablation; see core.Config).
	SequentialRecovery bool

	// Sim parameters.
	Seed uint64
	Net  sim.NetConfig
	Disk sim.DiskConfig

	// DebugLog, when non-nil, receives node Logf output (protocol-level
	// election/recovery tracing; see sim.Config.DebugLog).
	DebugLog io.Writer

	// OnRecovered reports a server that finished post-crash
	// re-synchronization.
	OnRecovered func(server int, at time.Time)
}

// watchdogInterval is how often each node's watchdog checks its
// application server (paper §5.1: restart "as soon as it detects the
// crash").
const watchdogInterval = time.Second

// Cluster wires servers, proxy, watchdog and faultload over a simulator.
// Servers are numbered flat by the Layout rule (layout.go); the cluster
// keeps one record per server and one per group, and every other site
// looks a server up there instead of recomputing the rule.
//
// Session routing is epoch-versioned state (shard.RoutingTable), not
// arithmetic: the epoch-0 table reproduces the historical hash%N mapping
// bit for bit, and Rebalance (rebalance.go) adds a group mid-run by
// live-migrating session slices to it and publishing the next epoch.
type Cluster struct {
	cfg   Config
	sim   *sim.Sim
	table shard.RoutingTable // current routing epoch (sim-loop confined)

	servers []server // by flat index
	groups  []group  // by group; grows on Rebalance
	proxyID env.NodeID
	proxy   *Proxy

	// Wire records in flight between proxy and servers (freelist.go). The
	// lists are the cluster's, not a node's: a record is taken by its
	// sender and released by its receiver.
	reqs  freeList[reqMsg]
	resps freeList[respMsg]

	faults        int
	interventions int

	// Checkpoint I/O accounting across all servers (sim-loop confined;
	// read after the run): writes counts checkpoints taken, bytes their
	// written sizes — full images or delta layers.
	ckptWrites int64
	ckptBytes  int64

	// fenceViolations counts fenced reads served by a replica whose
	// applied index was still below the fence — impossible by
	// construction when ReadAt and the fence plumbing are correct, so
	// any non-zero value is a read-your-writes regression. Checked at
	// serve time on every fenced read; tests assert it stays zero
	// across the seeded fault suite.
	fenceViolations int64

	mig *shard.Migration // non-nil once Rebalance has been called
}

// server is the cluster's record of one application server, across its
// incarnations (sim-loop confined).
type server struct {
	id      env.NodeID
	group   int
	learner bool    // a learner-backed reader, not a voter
	cur     *Server // current incarnation, replaced at every (re)start
	auto    bool    // the watchdog restarts it

	// Gray-failure mode: a grayed server keeps answering probes — its
	// probe path is untouched — while erroring a fraction of real requests
	// (grayErr) or slow-walking their service times by a multiplier
	// (graySlow). Like a disk degradation, gray failure belongs to the
	// process environment (a wedged NIC queue, a sick dependency) and
	// survives crash/restart until restored. grays holds the factor of
	// every open Cluster.GrayFail; settleGray derives the two rates from it.
	grayErr, graySlow float64
	grays             []*float64
}

// group is the cluster's record of one Paxos group (sim-loop confined).
type group struct {
	voters, readers []int // flat server indices

	// members and learners are the same servers as Paxos is handed them:
	// the voting membership and the learner nodes it forwards to.
	members, learners []env.NodeID

	// Staleness accounting: reads served to completion, fenced reads that
	// had to wait for the serving replica to catch up to the session's
	// commit index, and fence waits that expired into a TooStale fallback.
	readsServed, fenceWaits, staleServes int64

	// Cross-shard transaction accounting: branch outcomes ordered in the
	// group's log (counted exactly once per group per transaction, on the
	// record that made it terminal) and time ordinary writes spent held
	// behind a prepared branch's blocked keys.
	txnCommits, txnAborts, txnBlockedNs int64
}

// NewCluster builds the deployment. Call Start before driving load.
func NewCluster(cfg Config) *Cluster {
	if cfg.Servers <= 0 {
		panic("webtier: Config.Servers must be positive")
	}
	if cfg.Store == nil {
		panic("webtier: Config.Store is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Cal.PageSize == 0 {
		cfg.Cal = DefaultCalibration()
	}
	if cfg.Readers < 0 {
		cfg.Readers = 0
	}
	c := &Cluster{cfg: cfg, table: shard.NewRoutingTable(cfg.Shards)}
	c.sim = sim.New(sim.Config{Seed: cfg.Seed, Net: cfg.Net, Disk: cfg.Disk, DebugLog: cfg.DebugLog})
	for g := 0; g < cfg.Shards; g++ {
		c.addGroup()
	}
	// Learner-backed readers are full application servers (probes,
	// watchdog restarts, checkpoints) whose consensus engine only listens.
	for g := 0; g < cfg.Shards; g++ {
		for j := 0; j < cfg.Readers; j++ {
			c.addServer(c.layout().Reader(g, j), g, true)
		}
	}
	c.proxyID = c.sim.AddNode(func() env.Node {
		p := &Proxy{c: c}
		c.proxy = p
		return p
	})
	return c
}

func (c *Cluster) layout() Layout {
	return Layout{Shards: c.cfg.Shards, Servers: c.cfg.Servers, Readers: c.cfg.Readers}
}

// addGroup registers the next group and its Servers voters, and returns
// its index.
func (c *Cluster) addGroup() int {
	g := len(c.groups)
	c.groups = append(c.groups, group{})
	for m := 0; m < c.cfg.Servers; m++ {
		c.addServer(c.layout().Voter(g, m), g, false)
	}
	return g
}

// addServer registers server idx — the next flat index — as a voter, or a
// learner reader, of group g.
func (c *Cluster) addServer(idx, g int, learner bool) {
	if idx != len(c.servers) {
		panic("webtier: servers must be added in layout order")
	}
	id := c.sim.AddNode(func() env.Node {
		s := &Server{c: c, idx: idx}
		c.servers[idx].cur = s
		return s
	})
	c.servers = append(c.servers, server{id: id, group: g, learner: learner, auto: true})
	gr := &c.groups[g]
	if learner {
		gr.readers, gr.learners = append(gr.readers, idx), append(gr.learners, id)
	} else {
		gr.voters, gr.members = append(gr.voters, idx), append(gr.members, id)
	}
}

// Sim exposes the simulator for scheduling workload and faultloads.
func (c *Cluster) Sim() *sim.Sim { return c.sim }

// Shards returns the current Paxos group count (grows on Rebalance).
func (c *Cluster) Shards() int { return len(c.groups) }

// TotalServers returns the flat server count, voters and readers.
func (c *Cluster) TotalServers() int { return len(c.servers) }

// Voters returns the flat indices of group g's voting servers, Readers
// those of its learner-backed readers, and GroupOfServer the group of any
// flat index. The slices are the cluster's own: read, do not modify.
func (c *Cluster) Voters(g int) []int      { return c.groups[g].voters }
func (c *Cluster) Readers(g int) []int     { return c.groups[g].readers }
func (c *Cluster) GroupOfServer(i int) int { return c.servers[i].group }

// GroupOf returns the group serving a client's session under the current
// routing epoch. The mapping is tpcw.SessionKey's, so the web tier, the
// live command and any shard.Store keyed by session agree on placement.
func (c *Cluster) GroupOf(client int64) int {
	_, g := c.table.RouteInt(tpcw.SessionPrefix, client)
	return g
}

// sessionFrozen reports whether a client's session slice is mid-handoff:
// its writes must wait for the next routing epoch (the proxy requeues
// them; reads keep flowing to the source group).
func (c *Cluster) sessionFrozen(client int64) bool {
	if c.mig == nil {
		return false
	}
	slice, _ := c.table.RouteInt(tpcw.SessionPrefix, client)
	return c.mig.Frozen(slice)
}

// Start boots all nodes and the watchdogs.
func (c *Cluster) Start() {
	c.sim.StartAll()
	c.sim.After(watchdogInterval, c.watchdog)
}

// watchdog re-instantiates crashed application servers automatically
// (paper §5.1), unless auto-restart was disabled for the delayed-recovery
// faultload.
func (c *Cluster) watchdog() {
	for _, sv := range c.servers {
		if !c.sim.Alive(sv.id) && sv.auto {
			c.sim.Restart(sv.id)
		}
	}
	c.sim.After(watchdogInterval, c.watchdog)
}

// Crash kills server i abruptly (OS-level kill, §5.1). In-flight requests
// there surface as client errors after the connection-reset delay.
func (c *Cluster) Crash(i int) {
	if !c.sim.Alive(c.servers[i].id) {
		return
	}
	c.faults++
	c.sim.Crash(c.servers[i].id)
	c.sim.After(time.Millisecond, func() {
		if c.proxy != nil {
			c.proxy.onServerReset(i)
		}
	})
}

// SetAutoRestart enables or disables the watchdog for server i.
func (c *Cluster) SetAutoRestart(i int, auto bool) { c.servers[i].auto = auto }

// FaultLinks opens fx — its direction, relative to the servers, and its
// effect — on the links of the given servers (flat indices) and returns
// its heal. The servers are cut from the rest of the cluster — the
// proxy included, so isolating a whole group severs its client slice's
// path entirely, and a node added meanwhile joins the healthy side — or,
// with ownGroup, each from the other members, voters and readers, of its
// own group, leaving the proxy path and every other link intact: a learner
// reader cut off that way keeps serving reads while its applied log falls
// arbitrarily far behind, the staleness worst case the read fences must
// bound. Open faults compose (see netfault), and the heal lifts exactly
// this one. Counts one injected fault.
func (c *Cluster) FaultLinks(servers []int, ownGroup bool, fx netfault.Fault) (heal func()) {
	c.faults++
	var hs []*netfault.Handle
	open := func(nodes, peers []env.NodeID) {
		fx.Nodes, fx.Peers = nodes, peers
		hs = append(hs, c.sim.Links().Open(fx))
	}
	if ownGroup {
		for _, i := range servers {
			vid, g := c.servers[i].id, &c.groups[c.servers[i].group]
			var peers []env.NodeID
			for _, pid := range slices.Concat(g.members, g.learners) {
				if pid != vid {
					peers = append(peers, pid)
				}
			}
			open([]env.NodeID{vid}, peers)
		}
	} else {
		ids := make([]env.NodeID, len(servers))
		for k, i := range servers {
			ids[k] = c.servers[i].id
		}
		open(ids, nil)
	}
	return func() {
		for _, h := range hs {
			h.Heal()
		}
	}
}

// DegradeDisk slows server i's disk live by factor (seek × factor,
// bandwidth ÷ factor) — the failing-disk straggler — until the returned
// heal. Overlapping degradations run at the worst factor still open, and
// survive crash/restart of the server. Counts one injected fault.
func (c *Cluster) DegradeDisk(i int, factor float64) (heal func()) {
	c.faults++
	return c.sim.SlowDisk(c.servers[i].id, factor)
}

// GrayFail puts server i into gray-failure mode until the returned heal:
// it keeps answering probes (its probe path never touches the request
// machinery) while real requests suffer. factor < 1 is an error rate —
// that fraction of requests fail fast with a server-side error; factor ≥ 1
// is a slow-walk multiplier on request service times. The prober alone
// cannot see this fault, which is the point. Overlapping gray failures
// compose: the worst open error rate and the worst open slow-walk run
// together, and the heal lifts only this one. Counts one injected fault.
func (c *Cluster) GrayFail(i int, factor float64) (heal func()) {
	c.faults++
	sv := &c.servers[i]
	h := &factor
	sv.grays = append(sv.grays, h)
	sv.settleGray()
	return func() {
		if k := slices.Index(sv.grays, h); k >= 0 {
			sv.grays = slices.Delete(sv.grays, k, k+1)
			sv.settleGray()
		}
	}
}

// settleGray derives the server's gray-failure mode from its open gray
// failures.
func (sv *server) settleGray() {
	sv.grayErr, sv.graySlow = 0, 0
	for _, f := range sv.grays {
		if *f < 1 {
			sv.grayErr = max(sv.grayErr, *f)
		} else {
			sv.graySlow = max(sv.graySlow, *f)
		}
	}
}

// LeaderOf returns the flat index of the server currently leading group
// g's consensus, or -1 while the group has no live leader. Call from
// simulator context (the leader is executor-confined state).
func (c *Cluster) LeaderOf(g int) int {
	for _, i := range c.groups[g].voters {
		if s := c.Server(i); s != nil && s.replica != nil && s.replica.IsLeader() {
			return i
		}
	}
	return -1
}

// ManualRecover restarts server i by operator intervention (the delayed
// recovery of §5.6) and counts it against autonomy.
func (c *Cluster) ManualRecover(i int) {
	c.interventions++
	c.servers[i].auto = true
	c.sim.Restart(c.servers[i].id)
}

// Faults returns injected fault count; Interventions the number of human
// interventions (autonomy measure).
func (c *Cluster) Faults() int        { return c.faults }
func (c *Cluster) Interventions() int { return c.interventions }

// CheckpointIO returns the cumulative checkpoint count and bytes written
// across all servers (the steady-state disk cost the incremental
// pipeline shrinks). Read it outside the simulation loop's execution.
func (c *Cluster) CheckpointIO() (writes, bytes int64) {
	return c.ckptWrites, c.ckptBytes
}

// ReadStats returns group g's cumulative read-path staleness accounting:
// reads served to completion by the group's voters + readers, fenced
// reads that had to wait for the serving replica, and fence waits that
// expired into a TooStale fallback. Read it outside the simulation
// loop's execution.
func (c *Cluster) ReadStats(g int) (served, fenceWaits, staleServes int64) {
	gr := c.groups[g]
	return gr.readsServed, gr.fenceWaits, gr.staleServes
}

// TxnStats returns group g's cumulative cross-shard transaction
// accounting: branch commits and aborts ordered in the group's log, and
// the total time ordinary writes spent held behind prepared branches'
// blocked keys. Read it outside the simulation loop's execution.
func (c *Cluster) TxnStats(g int) (commits, aborts int64, blocked time.Duration) {
	gr := c.groups[g]
	return gr.txnCommits, gr.txnAborts, time.Duration(gr.txnBlockedNs)
}

// FenceViolations returns the number of fenced reads served below their
// fence — always zero unless the read-your-writes machinery regressed.
func (c *Cluster) FenceViolations() int64 { return c.fenceViolations }

// ProxyStats returns error-cause diagnostics.
func (c *Cluster) ProxyStats() ProxyStats {
	if c.proxy == nil {
		return ProxyStats{}
	}
	return c.proxy.Stats
}

// Downtime returns total full-outage time observed at the proxy.
func (c *Cluster) Downtime() time.Duration {
	if c.proxy == nil {
		return 0
	}
	return c.proxy.Downtime()
}

// GroupDowntimes returns each group's cumulative outage time observed at
// the proxy (the per-slice availability inputs).
func (c *Cluster) GroupDowntimes() []time.Duration {
	if c.proxy == nil {
		return make([]time.Duration, len(c.groups))
	}
	return c.proxy.GroupDowntimes()
}

// Frontend returns the client-facing interface (the proxy).
func (c *Cluster) Frontend() rbe.Frontend { return frontend{c: c} }

type frontend struct{ c *Cluster }

func (f frontend) Do(req rbe.Request, done func(rbe.Response)) {
	f.c.proxy.Do(req, done)
}

// CheckpointAll forces a durable checkpoint on every live server and calls
// done when all have completed — used to install the initial population
// checkpoint before the measurement interval. Targets are collected before
// any checkpoint starts because a replica with nothing to checkpoint
// completes synchronously, which would otherwise fire done early.
//
// Completion is crash-aware: a server that dies mid-checkpoint loses its
// storage completion with the rest of its volatile state, so a sweep
// counts dead or replaced incarnations as finished rather than letting
// done hang forever.
func (c *Cluster) CheckpointAll(done func()) {
	type target struct {
		idx int
		r   *core.Replica
	}
	var targets []target
	for i := range c.servers {
		if s := c.Server(i); s != nil {
			targets = append(targets, target{idx: i, r: s.replica})
		}
	}
	reps := make([]*core.Replica, len(targets))
	for k, t := range targets {
		reps[k] = t.r
	}
	core.CheckpointFanout(reps,
		func(k int) bool {
			t := targets[k]
			s := c.Server(t.idx)
			return s == nil || s.replica != t.r
		},
		c.sim.After, done)
}

// accepting reports whether server i accepts TCP connections: the process
// is running and its HTTP listener is up (application state loaded). A
// restarting server refuses connections until then, which the proxy
// treats as an instant dispatch failure, not a client error.
func (c *Cluster) accepting(i int) bool {
	s := c.Server(i)
	return s != nil && s.replica != nil && s.replica.Ready()
}

// Server returns the current incarnation of server i (nil while crashed).
func (c *Cluster) Server(i int) *Server {
	if !c.sim.Alive(c.servers[i].id) {
		return nil
	}
	return c.servers[i].cur
}

// Store returns server i's bookstore state (for consistency checks).
func (c *Cluster) Store(i int) *tpcw.Store {
	s := c.Server(i)
	if s == nil {
		return nil
	}
	return s.store
}

// Replica returns server i's Treplica replica (nil while crashed).
func (c *Cluster) Replica(i int) *core.Replica {
	s := c.Server(i)
	if s == nil {
		return nil
	}
	return s.replica
}

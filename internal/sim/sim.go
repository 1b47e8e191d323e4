// Package sim is a deterministic discrete-event simulator that substitutes
// for the paper's 18-node cluster (§5.1). It runs the real protocol code
// (internal/paxos, internal/core, internal/webtier) on virtual time with
// calibrated network, disk and CPU resource models, so experiments covering
// 600 s of cluster time execute in seconds and are exactly reproducible
// from a root seed.
//
// Crash semantics follow the paper's faultload: killing a node destroys all
// volatile state (the node object, its timers, its in-flight work) while
// its simulated stable storage survives; restarting constructs a fresh node
// through its factory and runs the real recovery path.
package sim

import (
	"fmt"
	"io"
	"math"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/xrand"
)

// Config parameterizes a simulation.
type Config struct {
	// Seed is the root seed; every random stream derives from it.
	Seed uint64

	// Net models the cluster interconnect (defaults: 1 Gbps switched
	// Ethernet).
	Net NetConfig

	// Disk models each node's local disk (defaults: a 7200 rpm SATA
	// disk, per §5.1).
	Disk DiskConfig

	// DebugLog, when non-nil, receives node Logf output.
	DebugLog io.Writer
}

// Sim is the event loop and cluster container. It is single-threaded: all
// node callbacks run inside Run*, one at a time, in deterministic order.
type Sim struct {
	cfg     Config
	now     time.Time
	queue   eventQueue // everything due to run but the timers
	timers  timerHeap  // the armed timers
	seq     int64
	rng     *xrand.Rand
	nodes   []*simNode
	peers   []env.NodeID
	started bool
	links   *netfault.Table // severed, lossy and slow links, consulted by send
}

// New returns an empty simulation starting at the Unix epoch of virtual
// time.
func New(cfg Config) *Sim {
	cfg.Net = cfg.Net.withDefaults()
	cfg.Disk = cfg.Disk.withDefaults()
	return &Sim{
		cfg:   cfg,
		now:   time.Unix(0, 0).UTC(),
		rng:   xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + 1),
		links: netfault.New(netfault.LoopConfined{}),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// stamp returns the key of the next thing scheduled, to run at time at
// (clamped to now).
func (s *Sim) stamp(at time.Time) key {
	s.seq++
	return key{at: max(at.UnixNano(), s.now.UnixNano()), seq: s.seq}
}

// schedule enqueues ev at time at, stamping its key.
func (s *Sim) schedule(at time.Time, ev event) {
	ev.key = s.stamp(at)
	s.queue.push(ev)
}

// At schedules a global callback at virtual time at.
func (s *Sim) At(at time.Time, fn func()) { s.schedule(at, event{fn: fn}) }

// After schedules a global callback after d.
func (s *Sim) After(d time.Duration, fn func()) { s.schedule(s.now.Add(d), event{fn: fn}) }

// step runs whichever is earlier, the first armed timer or the first event,
// and reports whether it did: not if both heaps are empty or the earlier of
// the two is due after limit (unix nanos).
func (s *Sim) step(limit int64) bool {
	if len(s.timers) > 0 && (len(s.queue) == 0 || s.timers[0].before(s.queue[0].key)) {
		t := s.timers[0]
		if t.at > limit {
			return false
		}
		// The timer is spent before its callback runs: a later Stop must not
		// claim it prevented this callback, and the callback may Reset it.
		s.timers.remove(t)
		s.now = time.Unix(0, t.at).UTC()
		if n := t.e.n; n.alive && n.incarnation == t.e.inc {
			t.fn()
		}
		return true
	}
	if len(s.queue) == 0 || s.queue[0].at > limit {
		return false
	}
	e := s.queue.pop()
	s.now = time.Unix(0, e.at).UTC()
	switch e.kind {
	case evGlobal:
		e.fn()
	case evDeliver:
		// Delivery is to whichever incarnation is up on arrival.
		if e.node.alive && e.node.node != nil {
			e.node.node.Receive(e.from, e.msg)
		}
	case evResource:
		e.msg.(*Resource).complete(int(e.from), e.inc)
	case evNode:
		if e.node.alive && e.node.incarnation == e.inc {
			e.fn()
		}
	}
	return true
}

// RunUntil executes events until virtual time reaches t. Events scheduled
// exactly at t are executed.
func (s *Sim) RunUntil(t time.Time) {
	for limit := t.UnixNano(); s.step(limit); {
	}
	if s.now.Before(t) {
		s.now = t
	}
}

// RunFor advances virtual time by d.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// RunUntilIdle executes events until the queue drains or maxEvents have
// run, and reports whether the queue drained. It is meant for protocol
// unit tests; periodic timers (heartbeats) never drain, so tests bound the
// event count.
func (s *Sim) RunUntilIdle(maxEvents int) bool {
	for i := 0; i < maxEvents && s.step(math.MaxInt64); i++ {
	}
	return len(s.queue)+len(s.timers) == 0
}

// simNode holds the runtime state of one cluster member across
// incarnations.
type simNode struct {
	sim         *Sim
	id          env.NodeID
	factory     func() env.Node
	node        env.Node // nil while crashed
	alive       bool
	incarnation int64
	rng         *xrand.Rand
	storage     *diskStorage
	nicBusy     time.Time // outbound NIC serialization horizon
}

// AddNode registers a cluster member built by factory. The returned ID
// is dense, starting at 0. Nodes added before StartAll are booted by it;
// a node added later (live scale-out, e.g. shard.Store.Rebalance) starts
// down and is booted by Restart, exactly as on the live runtime.
func (s *Sim) AddNode(factory func() env.Node) env.NodeID {
	id := env.NodeID(len(s.nodes))
	n := &simNode{
		sim:     s,
		id:      id,
		factory: factory,
		rng:     s.rng.Split(),
	}
	n.storage = newDiskStorage(s, n, s.cfg.Disk)
	s.nodes = append(s.nodes, n)
	s.peers = append(s.peers, id)
	s.links.AddPeer(id) // active partitions extend to the newcomer
	return id
}

// StartAll boots every node.
func (s *Sim) StartAll() {
	s.started = true
	for _, n := range s.nodes {
		if !n.alive {
			s.startNode(n)
		}
	}
}

func (s *Sim) startNode(n *simNode) {
	n.incarnation++
	n.alive = true
	n.node = n.factory()
	e := &nodeEnv{n: n, inc: n.incarnation}
	// Start runs as an event so that ordering with other events is
	// deterministic.
	e.Post(func() { n.node.Start(e) })
}

// Crash kills node id: its volatile state is destroyed, pending timers and
// in-flight callbacks die, stable storage survives. Crashing a dead node
// is a no-op.
func (s *Sim) Crash(id env.NodeID) {
	n := s.nodes[id]
	if !n.alive {
		return
	}
	n.alive = false
	n.node = nil
	n.incarnation++ // orphan all pending callbacks
	n.storage.onCrash()
}

// Restart boots a fresh incarnation of node id from its factory. The new
// node recovers from the surviving stable storage. Restarting a live node
// is a no-op.
func (s *Sim) Restart(id env.NodeID) {
	n := s.nodes[id]
	if n.alive {
		return
	}
	s.startNode(n)
}

// Alive reports whether node id is currently running.
func (s *Sim) Alive(id env.NodeID) bool { return s.nodes[id].alive }

// Storage returns node id's stable storage (survives crashes). Intended
// for tests and experiment setup (pre-populating state).
func (s *Sim) Storage(id env.NodeID) env.Storage { return s.nodes[id].storage }

// SlowDisk degrades node id's disk live until the returned heal: seek time
// is multiplied by factor and both bandwidths divided by it, modeling a
// failing drive in constant retry — the straggler that drags the WAL
// group-commit quorum and checkpoint writes. Overlapping slowdowns
// compose: the drive runs at the worst factor still open (factors < 1
// count as 1), and each heal lifts only its own. The degradation belongs
// to the hardware, so it survives Crash/Restart of the node, and transfers
// already queued feel it from their next chunk.
func (s *Sim) SlowDisk(id env.NodeID, factor float64) (heal func()) {
	return s.nodes[id].storage.slowBy(factor)
}

// Links is the cluster's link-fault table (netfault.Table documents it):
// sends consult it, and every fault opened on it returns the handle that
// heals exactly that fault. Loss draws a random number only on a lossy
// link, and a delay scales only the switch latency and its jitter, never
// NIC serialization.
func (s *Sim) Links() *netfault.Table { return s.links }

// nodeEnv is the env.Env for a single incarnation of a node. Callbacks are
// delivered only while the incarnation is current (see Sim.step).
type nodeEnv struct {
	n   *simNode
	inc int64
}

var _ env.Env = (*nodeEnv)(nil)

func (e *nodeEnv) ID() env.NodeID      { return e.n.id }
func (e *nodeEnv) Peers() []env.NodeID { return e.n.sim.peers }
func (e *nodeEnv) Now() time.Time      { return e.n.sim.now }

func (e *nodeEnv) Post(fn func()) {
	e.n.sim.schedule(e.n.sim.now, event{kind: evNode, node: e.n, inc: e.inc, fn: fn})
}

// simTimer is a node timer. While armed it is an entry of the simulation's
// timerHeap, under the key its last Reset gave it; once it has fired or been
// stopped nothing in the loop refers to it.
type simTimer struct {
	key
	e   *nodeEnv
	fn  func()
	pos int32 // its place in the heap; -1 while it is not armed
}

func (t *simTimer) Stop() bool {
	if t.pos < 0 {
		return false
	}
	t.e.n.sim.timers.remove(t)
	return true
}

func (t *simTimer) Reset(d time.Duration) {
	s := t.e.n.sim
	t.key = s.stamp(s.now.Add(d))
	s.timers.arm(t)
}

func (e *nodeEnv) After(d time.Duration, fn func()) env.Timer {
	t := &simTimer{e: e, fn: fn, pos: -1}
	t.Reset(d)
	return t
}

func (e *nodeEnv) Send(to env.NodeID, msg env.Message) {
	e.n.sim.send(e.n, to, msg)
}

func (e *nodeEnv) Storage() env.Storage { return e.n.storage }

func (e *nodeEnv) Rand() env.Rand { return e.n.rng }

func (e *nodeEnv) Logf(format string, args ...any) {
	w := e.n.sim.cfg.DebugLog
	if w == nil {
		return
	}
	fmt.Fprintf(w, "%8.3fs n%d: %s\n",
		e.n.sim.now.Sub(time.Unix(0, 0).UTC()).Seconds(),
		e.n.id, fmt.Sprintf(format, args...))
}

// send models the network: sender NIC serialization, switch latency with
// jitter, drops and partitions; see NetConfig.
func (s *Sim) send(from *simNode, to env.NodeID, msg env.Message) {
	if int(to) < 0 || int(to) >= len(s.nodes) {
		return
	}
	link := s.links.Link(from.id, to)
	if link.Blocked() {
		return
	}
	nc := s.cfg.Net
	// Loss draws only when the link has a rate set, so runs without loss
	// consume no random numbers for it.
	if link.Loss > 0 && s.rng.Float64() < link.Loss {
		return
	}
	size := sizeOf(msg)
	var depart time.Time
	if from.id == to {
		// Loopback skips the NIC.
		depart = s.now
	} else {
		depart = s.now
		if from.nicBusy.After(depart) {
			depart = from.nicBusy
		}
		depart = depart.Add(nc.SendOverhead + time.Duration(float64(size)*nc.perByte()))
		from.nicBusy = depart
	}
	lat := nc.BaseLatency
	if nc.Jitter > 0 {
		lat += time.Duration(s.rng.Float64() * nc.Jitter * float64(nc.BaseLatency))
	}
	// Per-link delay scales only when a factor is set, so runs without
	// delay windows consume the same random stream as before.
	if link.Delay > 0 {
		lat = time.Duration(float64(lat) * link.Delay)
	}
	s.schedule(depart.Add(lat), event{kind: evDeliver, node: s.nodes[to], from: from.id, msg: msg})
}

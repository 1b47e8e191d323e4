// Package livenet is the real-time runtime for the protocol stack: each
// node runs a goroutine event loop, messages travel over in-process
// channels with configurable latency, timers use the wall clock, and
// stable storage is crash-durable within the process. cmd/robuststore and
// the live tests run the same env.Node implementations (internal/core,
// internal/paxos) on this runtime that the experiments run on the
// deterministic simulator.
//
// Link faults go through the same table as on the simulator
// (internal/netfault, reached with Links): a fault opened there, and the
// handle that heals it, mean here exactly what they mean there. This
// runtime adds the locking, and SetGray.
package livenet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/seqwin"
	"robuststore/internal/xrand"
)

// Config parameterizes a live cluster.
type Config struct {
	// Latency delays each delivered message (one way). Default 200 µs.
	Latency time.Duration

	// Seed feeds the per-node deterministic streams handed to protocol
	// code (message delivery order is still scheduler-dependent).
	Seed uint64
}

// Cluster owns a set of live nodes. The node and peer lists are
// published as atomic snapshots (copy-on-append) so node goroutines can
// read them lock-free while live scale-out (shard.Store.Rebalance)
// registers new members mid-run.
type Cluster struct {
	cfg   Config
	mu    sync.Mutex // serializes AddNode writers
	nodes atomic.Pointer[[]*liveNode]
	peers atomic.Pointer[[]env.NodeID]
	rng   *xrand.Rand
	wg    sync.WaitGroup

	// The message-filter layer consulted on every Send. links takes
	// linkMu itself when it changes; Send reads it, and gray, under the
	// read lock.
	linkMu sync.RWMutex
	links  *netfault.Table
	gray   map[env.NodeID]float64 // guarded by linkMu
}

// nodeList returns the current node snapshot.
func (c *Cluster) nodeList() []*liveNode {
	if p := c.nodes.Load(); p != nil {
		return *p
	}
	return nil
}

// node returns node id, or nil when out of range.
func (c *Cluster) node(id env.NodeID) *liveNode {
	nodes := c.nodeList()
	if int(id) < 0 || int(id) >= len(nodes) {
		return nil
	}
	return nodes[id]
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	if cfg.Latency == 0 {
		cfg.Latency = 200 * time.Microsecond
	}
	c := &Cluster{
		cfg:  cfg,
		rng:  xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + 3),
		gray: make(map[env.NodeID]float64),
	}
	c.links = netfault.New(&c.linkMu)
	return c
}

// Links is the cluster's link-fault table (see netfault.Table). Its
// faults may be opened and healed from any goroutine.
func (c *Cluster) Links() *netfault.Table { return c.links }

// grayControlSize is the wire-size ceiling under which a message counts
// as control traffic for SetGray: liveness pings, Paxos prepares and
// probe messages all fit, while value-bearing accept/learn traffic does
// not.
const grayControlSize = 128

// SetGray puts node id into (or out of, rate ≤ 0) a gray-failure mode at
// the transport: inbound messages larger than grayControlSize are dropped
// with probability rate, while small control traffic — failure-detector
// pings, Paxos prepares, web-tier probes — passes untouched. The node
// keeps looking alive to every prober while its real work limps, the
// defining asymmetry of a gray failure.
func (c *Cluster) SetGray(id env.NodeID, rate float64) {
	c.linkMu.Lock()
	defer c.linkMu.Unlock()
	if rate <= 0 {
		delete(c.gray, id)
	} else {
		c.gray[id] = rate
	}
}

// linkState returns the fault state of the directed link from → to and
// the receiver's inbound gray-drop rate (0 when healthy).
func (c *Cluster) linkState(from, to env.NodeID) (netfault.Link, float64) {
	c.linkMu.RLock()
	defer c.linkMu.RUnlock()
	return c.links.Link(from, to), c.gray[to]
}

// AddNode registers a node built by factory; the factory runs once per
// incarnation (start and every restart). Nodes added before StartAll are
// booted by it; a node added later (live scale-out, e.g.
// shard.Store.Rebalance) starts down and is booted by Restart.
func (c *Cluster) AddNode(factory func() env.Node) env.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.nodeList()
	id := env.NodeID(len(old))
	n := &liveNode{
		c:       c,
		id:      id,
		factory: factory,
		rng:     c.rng.Split(),
		storage: newMemStorage(),
	}
	nodes := append(append([]*liveNode(nil), old...), n)
	var oldPeers []env.NodeID
	if p := c.peers.Load(); p != nil {
		oldPeers = *p
	}
	peers := append(append([]env.NodeID(nil), oldPeers...), id)
	c.nodes.Store(&nodes)
	c.peers.Store(&peers)
	c.links.AddPeer(id) // active partitions extend to the newcomer
	return id
}

// StartAll boots every node.
func (c *Cluster) StartAll() {
	for _, n := range c.nodeList() {
		n.start()
	}
}

// Crash kills a node: volatile state and pending work are discarded,
// stable storage survives.
func (c *Cluster) Crash(id env.NodeID) { c.node(id).crash() }

// Restart boots a fresh incarnation of a crashed node.
func (c *Cluster) Restart(id env.NodeID) { c.node(id).start() }

// Alive reports whether a node is running.
func (c *Cluster) Alive(id env.NodeID) bool {
	n := c.node(id)
	if n == nil {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Post schedules fn on a node's event loop (no-op if the node is down).
// It is how application goroutines hand work to protocol code.
func (c *Cluster) Post(id env.NodeID, fn func()) { c.node(id).post(fn) }

// After schedules a cluster-level callback on the wall clock, independent
// of any node incarnation (used by shard.Store's checkpoint sweep).
func (c *Cluster) After(d time.Duration, fn func()) { time.AfterFunc(d, fn) }

// Now returns the cluster clock — the wall clock on the live runtime —
// so that deterministic code (shard's migration driver) takes its
// timestamps from its runtime instead of calling time.Now itself.
func (c *Cluster) Now() time.Time { return time.Now() }

// Close crashes every node and waits for their loops to exit.
func (c *Cluster) Close() {
	for _, n := range c.nodeList() {
		n.crash()
	}
	c.wg.Wait()
}

// liveNode is one member across incarnations.
type liveNode struct {
	c       *Cluster
	id      env.NodeID
	factory func() env.Node
	rng     *xrand.Rand
	storage *memStorage

	mu    sync.Mutex
	alive bool
	inc   int64
	inbox chan func()
	node  env.Node
}

const inboxSize = 8192

func (n *liveNode) start() {
	n.mu.Lock()
	if n.alive {
		n.mu.Unlock()
		return
	}
	n.inc++
	inc := n.inc
	n.alive = true
	n.inbox = make(chan func(), inboxSize)
	n.node = n.factory()
	inbox := n.inbox
	node := n.node
	n.mu.Unlock()

	e := &liveEnv{n: n, inc: inc}
	n.c.wg.Add(1)
	go func() {
		defer n.c.wg.Done()
		for fn := range inbox {
			fn()
		}
	}()
	n.post(func() { node.Start(e) })
}

func (n *liveNode) crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return
	}
	n.alive = false
	n.inc++ // orphan timers and storage completions
	n.node = nil
	close(n.inbox)
	n.inbox = nil
}

// post runs fn on the node's loop if it is alive. Overflow drops the
// event (protocols tolerate loss); blocking here could deadlock loops
// sending to each other.
func (n *liveNode) post(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.inbox == nil {
		return
	}
	select {
	case n.inbox <- fn:
	default:
	}
}

// postInc posts only if the incarnation is still current. The send
// happens under the mutex so it cannot race the close in crash.
func (n *liveNode) postInc(inc int64, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive || n.inc != inc || n.inbox == nil {
		return
	}
	select {
	case n.inbox <- fn:
	default:
	}
}

// liveEnv implements env.Env for one incarnation.
type liveEnv struct {
	n   *liveNode
	inc int64
}

var _ env.Env = (*liveEnv)(nil)

func (e *liveEnv) ID() env.NodeID { return e.n.id }

func (e *liveEnv) Peers() []env.NodeID {
	if p := e.n.c.peers.Load(); p != nil {
		return *p
	}
	return nil
}

func (e *liveEnv) Now() time.Time { return time.Now() }

func (e *liveEnv) Post(fn func()) { e.n.postInc(e.inc, fn) }

// liveTimer is a wall-clock timer whose expiry posts the callback to the
// incarnation that made it (postInc), on every arming. An expiry already
// posted when Stop or Reset is called still runs: they act on the clock, not
// on the node's inbox.
type liveTimer struct{ t *time.Timer }

func (t *liveTimer) Stop() bool { return t.t.Stop() }

func (t *liveTimer) Reset(d time.Duration) { t.t.Reset(d) }

func (e *liveEnv) After(d time.Duration, fn func()) env.Timer {
	t := time.AfterFunc(d, func() { e.n.postInc(e.inc, fn) })
	return &liveTimer{t: t}
}

func (e *liveEnv) Send(to env.NodeID, msg env.Message) {
	c := e.n.c
	target := c.node(to)
	if target == nil {
		return
	}
	from := e.n.id
	link, gray := c.linkState(from, to)
	if link.Blocked() {
		return
	}
	if link.Loss > 0 && rand.Float64() < link.Loss {
		return
	}
	if gray > 0 {
		size := int64(grayControlSize + 1)
		if s, ok := msg.(interface{ WireSize() int64 }); ok {
			size = s.WireSize()
		}
		if size > grayControlSize && rand.Float64() < gray {
			return
		}
	}
	delay := c.cfg.Latency
	if link.Delay > 0 {
		delay = time.Duration(float64(delay) * link.Delay)
	}
	time.AfterFunc(delay, func() {
		target.mu.Lock()
		node := target.node
		target.mu.Unlock()
		if node != nil {
			target.post(func() {
				target.mu.Lock()
				cur := target.node
				target.mu.Unlock()
				if cur != nil {
					cur.Receive(from, msg)
				}
			})
		}
	})
}

func (e *liveEnv) Storage() env.Storage { return &storageView{n: e.n, inc: e.inc} }

func (e *liveEnv) Rand() env.Rand { return e.n.rng }

func (e *liveEnv) Logf(format string, args ...any) {}

// memStorage is crash-durable in-process storage: contents survive
// crash/restart of the node within the process lifetime. Completions are
// posted back to the owning incarnation's loop.
type memStorage struct {
	mu        sync.Mutex
	log       seqwin.Window[int64, env.Record] // the WAL; its base is FirstIndex
	snapshots map[string]env.Snapshot
}

func newMemStorage() *memStorage {
	return &memStorage{snapshots: make(map[string]env.Snapshot)}
}

// storageView binds the storage to one incarnation so stale completions
// are dropped.
type storageView struct {
	n   *liveNode
	inc int64
}

var _ env.Storage = (*storageView)(nil)

func (s *storageView) done(fn func()) { s.n.postInc(s.inc, fn) }

func (s *storageView) Append(rec env.Record, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	st.log.Append(rec)
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) AppendBatch(recs []env.Record, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	for _, rec := range recs {
		st.log.Append(rec)
	}
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) ReadRecords(done func([]env.Record, error)) {
	st := s.n.storage
	st.mu.Lock()
	recs := make([]env.Record, 0, st.log.End()-st.log.Base())
	for _, r := range st.log.From(st.log.Base()) {
		recs = append(recs, *r)
	}
	st.mu.Unlock()
	s.done(func() { done(recs, nil) })
}

func (s *storageView) Truncate(firstKept int64, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	st.log.DropBelow(min(firstKept, st.log.End()))
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) FirstIndex() int64 {
	st := s.n.storage
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Base()
}

func (s *storageView) SaveSnapshot(name string, snap env.Snapshot, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	st.snapshots[name] = snap
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) DeleteSnapshot(name string, done func(error)) {
	st := s.n.storage
	st.mu.Lock()
	delete(st.snapshots, name)
	st.mu.Unlock()
	if done != nil {
		s.done(func() { done(nil) })
	}
}

func (s *storageView) LoadSnapshot(name string, done func(env.Snapshot, bool)) {
	st := s.n.storage
	st.mu.Lock()
	snap, ok := st.snapshots[name]
	st.mu.Unlock()
	s.done(func() { done(snap, ok) })
}

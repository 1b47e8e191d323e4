package paxos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/sim"
)

// testCluster runs N engines on the simulator and records, per node, the
// delivered command sequence of the current incarnation.
type testCluster struct {
	t         *testing.T
	s         *sim.Sim
	n         int
	engines   []*Engine
	delivered [][]string              // per node, applied commands in order
	instOf    []map[InstanceID]string // per node, instance -> command (for consistency checks)

	// onDeliver, when non-nil, additionally sees every delivered value.
	onDeliver func(node int, inst InstanceID, v *Value)

	// onSend and onWrite, when non-nil, see every message an engine sends and
	// every record it appends to its WAL, before the runtime does.
	onSend  func(from, to env.NodeID, msg env.Message)
	onWrite func(node env.NodeID, rec env.Record)

	// rewrite, when non-nil, replaces every message an engine sends with
	// what it returns, after onSend has seen the original.
	rewrite func(msg env.Message) env.Message

	// failSyncs names the nodes whose WAL group commits complete with an
	// error: the records reach the disk, and the sync reports a failure.
	failSyncs map[env.NodeID]bool

	// recVals is the value each leader proposed at each instance of a
	// recovery round, as checkLeader has seen them.
	recVals map[recProposal]ValueID

	// floors, when non-nil, is each node's delivery floor at boot (one past
	// its checkpoint); nil boots every node at 0.
	floors []InstanceID
}

// recProposal names an instance of a recovery round (whose owner is the
// leader).
type recProposal struct {
	b    Ballot
	inst InstanceID
}

type engineNode struct {
	c  *testCluster
	id int
}

// tapEnv is an engine's runtime with its sends and WAL appends shown to the
// cluster's onSend and onWrite first, and its sends put through rewrite.
type tapEnv struct {
	env.Env
	c       *testCluster
	storage env.Storage
}

func (e tapEnv) Send(to env.NodeID, msg env.Message) {
	if e.c.onSend != nil {
		e.c.onSend(e.ID(), to, msg)
	}
	if e.c.rewrite != nil {
		msg = e.c.rewrite(msg)
	}
	e.Env.Send(to, msg)
}

func (e tapEnv) Storage() env.Storage { return e.storage }

type tapStorage struct {
	env.Storage
	c  *testCluster
	id env.NodeID
}

func (s tapStorage) AppendBatch(recs []env.Record, done func(error)) {
	if s.c.onWrite != nil {
		for _, r := range recs {
			s.c.onWrite(s.id, r)
		}
	}
	if s.c.failSyncs[s.id] {
		s.Storage.AppendBatch(recs, func(error) { done(errSyncFailed) })
		return
	}
	s.Storage.AppendBatch(recs, done)
}

var errSyncFailed = errors.New("injected WAL sync failure")

func (n *engineNode) Start(e env.Env) {
	c := n.c
	c.delivered[n.id] = nil
	c.instOf[n.id] = make(map[InstanceID]string)
	cfg := c.baseConfig()
	cfg.Deliver = func(inst InstanceID, v *Value) {
		if c.onDeliver != nil {
			c.onDeliver(n.id, inst, v)
		}
		for _, cmd := range v.Cmds {
			s, ok := cmd.(string)
			if !ok {
				c.t.Errorf("node %d: non-string cmd %v", n.id, cmd)
				continue
			}
			c.delivered[n.id] = append(c.delivered[n.id], s)
			c.instOf[n.id][inst] = fmt.Sprintf("%v", v.ID)
		}
	}
	en := New(cfg)
	c.engines[n.id] = en
	var floor InstanceID
	if c.floors != nil {
		floor = c.floors[n.id]
	}
	en.Boot(tapEnv{Env: e, c: c, storage: tapStorage{Storage: e.Storage(), c: c, id: e.ID()}}, floor, nil)
}

func (n *engineNode) Receive(from env.NodeID, msg env.Message) {
	c := n.c
	if en := c.engines[n.id]; en != nil {
		en.Handle(from, msg)
		c.checkLeader(en)
		noteFastLeader(en)
	}
}

var testFast bool

// testTune, when non-nil, adjusts every engine's Config before New —
// flow-control tests use it to shrink windows and thresholds. Tests that
// set it must clear it on exit (defer func() { testTune = nil }()).
var testTune func(*Config)

func (c *testCluster) baseConfig() Config {
	cfg := Config{
		FastEnabled: testFast,
		BatchDelay:  2 * time.Millisecond,
	}
	if testTune != nil {
		testTune(&cfg)
	}
	return cfg
}

func newCluster(t *testing.T, n int, fast bool, seed uint64, net sim.NetConfig) *testCluster {
	t.Helper()
	c := addEngines(t, n, fast, seed, net)
	c.s.StartAll()
	return c
}

// newLossyCluster is newCluster with every ordered pair of nodes, each
// node's link to itself included, losing rate of its messages from boot.
func newLossyCluster(t *testing.T, n int, fast bool, seed uint64, rate float64) *testCluster {
	t.Helper()
	c := addEngines(t, n, fast, seed, sim.NetConfig{})
	c.s.Links().Open(netfault.Fault{Nodes: c.ids(), Peers: c.ids(), Loss: rate})
	c.s.StartAll()
	return c
}

// ids returns the cluster's node IDs, 0 to n-1.
func (c *testCluster) ids() []env.NodeID {
	ids := make([]env.NodeID, c.n)
	for i := range ids {
		ids[i] = env.NodeID(i)
	}
	return ids
}

// silence severs every link from en, its loopback included: it hears every
// node and no node, itself included, hears it.
func (c *testCluster) silence(en *Engine) {
	c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{en.me}, Peers: c.ids(), Dir: env.LinkOutboundOnly, Sever: true})
}

// newClusterOnWAL is newCluster with wals[i] made durable on node i's WAL
// before it boots, at delivery floor floors[i]: a cluster restarted whole.
// A member whose WAL is nil never starts.
func newClusterOnWAL(t *testing.T, fast bool, seed uint64, wals [][]env.Record, floors []InstanceID) *testCluster {
	t.Helper()
	c := addEngines(t, len(wals), fast, seed, sim.NetConfig{})
	c.floors = floors
	for i, recs := range wals {
		if recs != nil {
			c.s.Storage(env.NodeID(i)).AppendBatch(recs, nil)
		}
	}
	c.s.RunFor(time.Second) // the appends become durable
	for i, recs := range wals {
		if recs != nil {
			c.s.Restart(env.NodeID(i)) // boots a node that is not running: its first start
		}
	}
	return c
}

// addEngines builds a cluster of n engine nodes that have not started.
func addEngines(t *testing.T, n int, fast bool, seed uint64, net sim.NetConfig) *testCluster {
	testFast = fast
	c := &testCluster{
		t:         t,
		n:         n,
		engines:   make([]*Engine, n),
		delivered: make([][]string, n),
		instOf:    make([]map[InstanceID]string, n),
	}
	c.s = sim.New(sim.Config{Seed: seed, Net: net})
	for i := 0; i < n; i++ {
		id := i
		c.s.AddNode(func() env.Node { return &engineNode{c: c, id: id} })
	}
	return c
}

// countVotes returns how many instances of en's log hold a vote.
func countVotes(en *Engine) int {
	n := 0
	for _, s := range en.log.From(en.log.Base()) {
		if s.vote != nil {
			n++
		}
	}
	return n
}

// submit schedules a command submission at node id after d.
func (c *testCluster) submit(d time.Duration, id int, cmd string) {
	c.s.After(d, func() {
		if en := c.engines[id]; en != nil && c.s.Alive(env.NodeID(id)) {
			en.Submit(cmd)
		}
	})
}

// checkConsistency verifies that all live nodes delivered consistent
// sequences: for every pair, one's delivery log is a prefix of the
// other's, and no node applied a command twice.
func (c *testCluster) checkConsistency() {
	c.t.Helper()
	for id := 0; id < c.n; id++ {
		seen := make(map[string]bool)
		for _, cmd := range c.delivered[id] {
			if seen[cmd] {
				c.t.Errorf("node %d applied %q twice", id, cmd)
			}
			seen[cmd] = true
		}
	}
	for a := 0; a < c.n; a++ {
		for b := a + 1; b < c.n; b++ {
			la, lb := c.delivered[a], c.delivered[b]
			m := len(la)
			if len(lb) < m {
				m = len(lb)
			}
			for i := 0; i < m; i++ {
				if la[i] != lb[i] {
					c.t.Fatalf("divergence at position %d: node %d=%q node %d=%q",
						i, a, la[i], b, lb[i])
				}
			}
		}
	}
	// Same instance must never hold different values on different nodes.
	for a := 0; a < c.n; a++ {
		for b := a + 1; b < c.n; b++ {
			for inst, va := range c.instOf[a] {
				if vb, ok := c.instOf[b][inst]; ok && va != vb {
					c.t.Fatalf("instance %d: node %d chose %s, node %d chose %s", inst, a, va, b, vb)
				}
			}
		}
	}
}

// requireDelivered asserts that node id applied exactly want commands.
func (c *testCluster) requireDelivered(id, want int) {
	c.t.Helper()
	if got := len(c.delivered[id]); got != want {
		c.t.Fatalf("node %d delivered %d commands, want %d", id, got, want)
	}
}

// fastLed records whether an engine of the running test has led an
// established fast ballot; the test clusters note it after every message
// they hand an engine.
var fastLed bool

func noteFastLeader(en *Engine) {
	if en.IsLeader() && en.leader.b.Fast {
		fastLed = true
	}
}

// testModes runs fn in classic and in fast mode. The fast case fails if no
// fast ballot was ever established: with Fast Paxos enabled, a group of three
// or fewer runs classic rounds, and a fast case there tests nothing new.
func testModes(t *testing.T, fn func(t *testing.T, fast bool)) {
	t.Run("classic", func(t *testing.T) { fn(t, false) })
	t.Run("fast", func(t *testing.T) {
		fastLed = false
		fn(t, true)
		if !fastLed {
			t.Fatal("no fast ballot was established: the fast case ran classic rounds")
		}
	})
}

// modeSize is the group size a mode's test runs at: three for classic rounds,
// five for fast ones, where the fast quorum of four leaves one acceptor out.
func modeSize(fast bool) int {
	if fast {
		return 5
	}
	return 3
}

func TestSingleCommand(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		c := newCluster(t, modeSize(fast), fast, 1, sim.NetConfig{})
		c.submit(2*time.Second, 1, "hello")
		c.s.RunFor(6 * time.Second)
		for id := 0; id < c.n; id++ {
			c.requireDelivered(id, 1)
		}
		c.checkConsistency()
	})
}

func TestManyProposers(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const total = 250
		c := newCluster(t, 5, fast, 2, sim.NetConfig{})
		for i := 0; i < total; i++ {
			c.submit(2*time.Second+time.Duration(i)*3*time.Millisecond, i%5,
				fmt.Sprintf("cmd-%d", i))
		}
		c.s.RunFor(12 * time.Second)
		for id := 0; id < 5; id++ {
			c.requireDelivered(id, total)
		}
		c.checkConsistency()
	})
}

func TestLeaderCrashFailover(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const total = 100
		c := newCluster(t, 5, fast, 3, sim.NetConfig{})
		for i := 0; i < total; i++ {
			c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, 1+i%4,
				fmt.Sprintf("cmd-%d", i))
		}
		// Node 0 wins the initial election; kill it mid-stream.
		c.s.After(2500*time.Millisecond, func() { c.s.Crash(0) })
		c.s.RunFor(15 * time.Second)
		for id := 1; id < 5; id++ {
			c.requireDelivered(id, total)
		}
		c.checkConsistency()
	})
}

// TestElectionStaggerByMemberIndex: the election timeout is staggered by a
// member's index in its group, not by its node ID. A group of nodes 3, 4 and
// 5 — the second group of a two-group layout — loses its leader (index 0),
// and the member at index 1 bids within its stagger, LeaderTimeout·3/2, plus
// the heartbeat interval the leader's last ping can precede the crash by and
// the sweep interval that checks the timeout: what the same group numbered
// 0, 1 and 2 takes. Staggered by ID, node 4 waits LeaderTimeout·3.
func TestElectionStaggerByMemberIndex(t *testing.T) {
	members := []env.NodeID{3, 4, 5}
	testTune = func(cfg *Config) { cfg.Members = members }
	defer func() { testTune = nil }()
	c := addEngines(t, 6, false, 1, sim.NetConfig{})
	for _, id := range members {
		c.s.Restart(id) // nodes 0, 1 and 2 never start: they are another group's
	}
	c.s.RunFor(5 * time.Second)
	leader := env.NodeID(-1)
	for _, id := range members {
		if c.engines[id].IsLeader() {
			leader = id
		}
	}
	if leader != members[0] {
		t.Fatalf("node %d leads after 5 s, want node %d (index 0)", leader, members[0])
	}
	cfg := c.baseConfig().withDefaults()
	crashed := c.s.Now()
	var bid time.Duration
	c.onSend = func(from, _ env.NodeID, msg env.Message) {
		if _, ok := msg.(prepareMsg); ok && bid == 0 {
			bid = c.s.Now().Sub(crashed)
			if from != members[1] {
				t.Errorf("node %d bid first, want node %d (index 1)", from, members[1])
			}
		}
	}
	c.s.Crash(leader)
	c.s.RunFor(5 * time.Second)
	limit := cfg.LeaderTimeout*3/2 + cfg.SweepInterval + cfg.HeartbeatInterval
	if bid == 0 || bid > limit {
		t.Fatalf("the successor bid %v after the leader crashed, want within %v", bid, limit)
	}
}

func TestCrashRecoverCatchUp(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const total = 120
		c := newCluster(t, 5, fast, 4, sim.NetConfig{})
		for i := 0; i < total; i++ {
			c.submit(2*time.Second+time.Duration(i)*25*time.Millisecond, i%4,
				fmt.Sprintf("cmd-%d", i))
		}
		c.s.After(3*time.Second, func() { c.s.Crash(4) })
		c.s.After(6*time.Second, func() { c.s.Restart(4) })
		c.s.RunFor(20 * time.Second)
		// Node 4 restarts with delivery floor 0 and must relearn the
		// full sequence.
		for id := 0; id < 5; id++ {
			c.requireDelivered(id, total)
		}
		c.checkConsistency()
	})
}

func TestMessageLoss(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const total = 80
		c := newLossyCluster(t, 5, fast, 5, 0.05)
		for i := 0; i < total; i++ {
			c.submit(2*time.Second+time.Duration(i)*30*time.Millisecond, i%5,
				fmt.Sprintf("cmd-%d", i))
		}
		c.s.RunFor(30 * time.Second)
		for id := 0; id < 5; id++ {
			c.requireDelivered(id, total)
		}
		c.checkConsistency()
	})
}

func TestBlocksBelowMajority(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		c := newCluster(t, 5, fast, 6, sim.NetConfig{})
		c.submit(2*time.Second, 0, "before")
		c.s.RunFor(4 * time.Second)
		c.requireDelivered(0, 1)

		// Kill three of five: below majority, the queue must block.
		c.s.Crash(2)
		c.s.Crash(3)
		c.s.Crash(4)
		c.submit(time.Second, 0, "blocked")
		c.s.RunFor(8 * time.Second)
		c.requireDelivered(0, 1)
		c.requireDelivered(1, 1)

		// Recovery restores liveness and the blocked command lands.
		c.s.Restart(2)
		c.s.Restart(3)
		c.s.RunFor(12 * time.Second)
		for _, id := range []int{0, 1, 2, 3} {
			c.requireDelivered(id, 2)
		}
		c.checkConsistency()
	})
}

func TestConcurrentCrashesConsistency(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const total = 150
		c := newLossyCluster(t, 5, fast, 7, 0.02)
		for i := 0; i < total; i++ {
			c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, i%5,
				fmt.Sprintf("cmd-%d", i))
		}
		c.s.After(2800*time.Millisecond, func() { c.s.Crash(1) })
		c.s.After(3100*time.Millisecond, func() { c.s.Crash(2) })
		c.s.After(5*time.Second, func() { c.s.Restart(1) })
		c.s.After(6*time.Second, func() { c.s.Restart(2) })
		c.s.RunFor(30 * time.Second)
		// Nodes that never crashed must have everything that was
		// submitted while they could make progress; above all, all
		// sequences must be mutually consistent.
		c.checkConsistency()
		if len(c.delivered[0]) == 0 {
			t.Fatal("no progress at all")
		}
	})
}

// TestStaleLeaderRejoinLiveness is the regression test for the
// partition-heal livelock the correlated faultloads exposed: the
// established leader is partitioned away under load, the majority elects
// a successor (fast mode — FastQuorum(5)=4 exactly covers the surviving
// acceptors), and on heal the stale ex-leader bids with a ballot above
// everything. Pre-fix, the old leader's next heartbeat (at its lower,
// long-superseded ballot) made the bidder adopt that stale leadership
// and abandon its own bid — after every acceptor had already promised
// the bid — leaving the cluster promised to a ballot nobody owned:
// every fast proposal was silently dropped, forever. The fix is
// two-sided: a bidder counts its own bid as the highest leadership
// ballot seen, and acceptors nack the coordinator of a superseded fast
// round instead of dropping its proposals silently.
//
// The seeds are chosen so the heal-time race (the rejoiner's sweep bid
// firing before the sitting leader's first heartbeat lands) actually
// occurs: each of these wedged the pre-fix engine.
func TestStaleLeaderRejoinLiveness(t *testing.T) {
	for _, seed := range []uint64{6, 37, 54, 60} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, 5, true, seed, sim.NetConfig{})
			c.submit(10*time.Millisecond, 0, "boot")
			c.s.RunFor(time.Second)
			lead := -1
			for i, en := range c.engines {
				if en.IsLeader() {
					lead = i
				}
			}
			if lead < 0 {
				t.Fatal("no leader established")
			}

			h := c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{env.NodeID(lead)}, Sever: true})
			// Load through the partition keeps the majority committing
			// (and its ballot state moving) without the old leader.
			n := 0
			for d := 100 * time.Millisecond; d < 4*time.Second; d += 50 * time.Millisecond {
				n++
				c.submit(d, (lead+1)%c.n, fmt.Sprintf("cmd%d", n))
			}
			c.s.RunFor(5 * time.Second)
			if got := len(c.delivered[(lead+1)%c.n]); got < n {
				t.Fatalf("majority delivered %d of %d during the partition", got, n)
			}

			h.Heal()
			c.s.RunFor(2 * time.Second)

			// THE regression: values submitted after the heal must still
			// commit, on every node including the rejoined ex-leader.
			const post = 10
			for i := 1; i <= post; i++ {
				c.submit(time.Duration(i)*100*time.Millisecond, (lead+2)%c.n, fmt.Sprintf("post%d", i))
			}
			c.s.RunFor(10 * time.Second)
			c.checkConsistency()
			for id := 0; id < c.n; id++ {
				if got := len(c.delivered[id]); got != 1+n+post {
					t.Fatalf("node %d delivered %d commands after heal, want %d (post-heal liveness lost)",
						id, got, 1+n+post)
				}
			}
		})
	}
}

// TestBidOutranksStaleHeartbeat is the bid half of the stale-leader-rejoin
// fix on its own: a bidder's own bid is the highest leadership ballot it has
// seen. Node y misses a re-election (its incoming links are blocked while the
// leader bids again), so its curBallot is the leader's old ballot. It then
// bids above the new one, and the leader's next heartbeat — at the new
// ballot, between y's stale curBallot and y's bid — arrives before the
// promises do. y must keep its bid and lead at it. It used to adopt the
// heartbeat's leadership and drop the bid as the acceptors promised it, which
// left the group with no working leader until a later election; nothing was
// delivered meanwhile.
func TestBidOutranksStaleHeartbeat(t *testing.T) {
	c := newCluster(t, 5, true, 6, sim.NetConfig{})
	c.submit(10*time.Millisecond, 0, "boot")
	c.s.RunFor(time.Second)
	lead := fastLeader(t, c)
	y := c.engines[(int(lead.me)+1)%c.n]

	// y stops hearing anyone while the leader re-bids and re-establishes.
	deaf := c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{y.me}, Peers: c.ids(), Dir: env.LinkInboundOnly, Sever: true})
	lead.startPrepare()
	c.s.RunFor(200 * time.Millisecond)
	if !lead.IsLeader() {
		t.Fatal("the leader did not re-establish without y")
	}
	renewed := lead.leader.b
	deaf.Heal()
	if !y.CurrentBallot().Less(renewed) {
		t.Fatalf("y saw the re-election: its ballot is %v, the leader's %v", y.CurrentBallot(), renewed)
	}

	// y learns of the higher ballot (as from a nack), bids above it, and the
	// leader's heartbeat reaches it before any promise.
	y.noteBallot(renewed)
	y.startPrepare()
	bid := y.leader.b
	y.Handle(lead.me, &pingMsg{B: renewed, Leader: true, FirstUnchosen: lead.firstUnchosen})
	if y.leader == nil || y.leader.b != bid {
		t.Fatalf("y dropped its bid %v on a heartbeat at %v", bid, renewed)
	}

	c.submit(300*time.Millisecond, 2, "after")
	c.s.RunFor(500 * time.Millisecond)
	if !y.IsLeader() || y.CurrentBallot() != bid {
		t.Fatalf("y does not lead at its bid %v (leads: %v, ballot %v)", bid, y.IsLeader(), y.CurrentBallot())
	}
	for id := range c.engines {
		c.requireDelivered(id, 2)
	}
	c.checkConsistency()
}

// TestSupersededFastRoundIsNacked is the nack half of the stale-leader-rejoin
// fix on its own: an acceptor that has promised a ballot above its fast round
// answers a fast proposal there with a nack to the round's coordinator. Here
// three acceptors promise a bid of node y that y itself never follows up (it
// holds no bid: the prepares are handed to them as if from an earlier y), so
// the promised ballot has no owner at work and the leader's fast round cannot
// reach a fast quorum. The nacks make the leader stand down, a new election
// bids above the orphaned ballot, and its fast round decides values with no
// recovery. Without them the acceptors dropped the fast proposals silently and
// the leader kept its dead round, where a value is decided only by a hedging
// recovery of its own; in the stale-leader race, where the recoveries were
// refused too, nothing was delivered for ever.
func TestSupersededFastRoundIsNacked(t *testing.T) {
	c := newCluster(t, 5, true, 6, sim.NetConfig{})
	c.submit(10*time.Millisecond, 0, "boot")
	c.s.RunFor(time.Second)
	lead := fastLeader(t, c)
	y := env.NodeID((int(lead.me) + 1) % c.n)
	orphan := Ballot{Seq: nextOwnedBallot(lead.maxBallotSeq, y, c.n), Fast: true}
	for id, en := range c.engines {
		if env.NodeID(id) != y && env.NodeID(id) != lead.me {
			en.Handle(y, prepareMsg{B: orphan, From: en.firstUnchosen})
		}
	}
	c.submit(10*time.Millisecond, 2, "superseded")
	c.s.RunFor(3 * time.Second)
	id := c.leaderIndex()
	if id < 0 || !orphan.Less(c.engines[id].CurrentBallot()) || !c.engines[id].FastActive() {
		t.Fatalf("no fast leadership above the orphaned ballot %v (leader %d at %v)", orphan, id, lead.CurrentBallot())
	}

	recoveries := func() (n int64) {
		for _, en := range c.engines {
			st := en.Stats()
			n += st.RecHedge + st.RecCollision + st.RecGap
		}
		return n
	}
	before := recoveries()
	for i := 0; i < 5; i++ {
		c.submit(time.Duration(i)*50*time.Millisecond, i, fmt.Sprintf("after%d", i))
	}
	c.s.RunFor(time.Second)
	for id := range c.engines {
		c.requireDelivered(id, 7)
	}
	c.checkConsistency()
	if n := recoveries() - before; n != 0 {
		t.Fatalf("%d recoveries for values proposed in a live fast round", n)
	}
}

// Package webtier models RobustStore's deployment tier (paper Figure 2):
// Tomcat-like replica servers that serve the fourteen TPC-W interactions
// over a Treplica-replicated bookstore, an HAProxy-like reverse proxy with
// probe-based failover and client-hash balancing, a watchdog that restarts
// crashed servers automatically, and the faultload controller that injects
// the paper's three crash scenarios.
package webtier

import (
	"strconv"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
)

// Messages between proxy and servers. Requests and responses travel as
// *reqMsg and *respMsg, wire records recycled through the cluster's two lists
// under the ownership rule of freelist.go.

type reqMsg struct {
	ID  int64
	Req rbe.Request

	// Fence is the read-your-writes fence on read requests: the session's
	// commit-index high-water mark. The serving replica must have applied
	// at least this log index before answering (core.Replica.ReadAt);
	// zero means unfenced. Maintained at every Readers setting — voting
	// non-leader replicas serve fenced reads even with no learner readers.
	Fence paxos.InstanceID
}

func (m reqMsg) WireSize() int64 { return 512 }

type respMsg struct {
	ID   int64
	Resp rbe.Response
	Page int64

	// WrongEpoch reports that the serving group no longer owns the
	// request's session under the current routing table (the request
	// raced a rebalance cutover); the proxy re-routes instead of
	// failing the client.
	WrongEpoch bool

	// Commit, on successful write responses, is the log instance the
	// write was applied at; the proxy folds it into the session's fence.
	Commit paxos.InstanceID

	// TooStale reports a fenced read whose bounded wait expired before
	// this replica caught up to the fence; the proxy redispatches to a
	// fresher server instead of failing the client.
	TooStale bool
}

func (m respMsg) WireSize() int64 { return 96 + m.Page }

type probeMsg struct {
	Seq int64
}

func (m probeMsg) WireSize() int64 { return 128 }

type probeRespMsg struct {
	Seq int64
	OK  bool
}

func (m probeRespMsg) WireSize() int64 { return 128 }

// Server is one application-server replica: an env.Node wrapping a
// Treplica replica over the bookstore store plus a CPU model. A fresh
// Server is built per incarnation; the simulated disk underneath survives.
type Server struct {
	c   *Cluster
	idx int // flat server index (layout.go): the cluster's record is c.servers[idx]

	e       env.Env
	cpu     *sim.Resource
	replica *core.Replica
	store   *tpcw.Store

	// promoted tracks old-generation promotion since the last modeled
	// GC pause.
	promoted int64

	// caughtUp becomes true once post-recovery log replay has drained
	// from the CPU; only then does the server pass health probes and
	// count as operational (the paper measures recovery up to the
	// moment the replica "is ready to proceed as if it had not
	// crashed", §2).
	caughtUp bool

	// Cross-shard transaction state (txn.go). txnCoords is this server's
	// volatile coordinator bookkeeping — losing it is safe, the decision
	// record is the durable outcome. txnArmed/txnResolve track the
	// participant-side resolution loops for prepared branches.
	txnSeq     int64
	txnCoords  map[string]*txnCoord
	txnArmed   map[string]bool
	txnResolve map[string]int

	free freeList[request] // answered records awaiting reuse; see request
}

var _ env.Node = (*Server)(nil)

// group is the Paxos group (shard) this server belongs to; learner reports a
// read-only server backed by a non-voting learner replica.
func (s *Server) group() int    { return s.c.servers[s.idx].group }
func (s *Server) learner() bool { return s.c.servers[s.idx].learner }

// Start implements env.Node.
func (s *Server) Start(e env.Env) {
	s.e = e
	s.free.idle = idleRequest
	s.cpu = sim.NewResource(s.c.sim, 1)
	cal := &s.c.cfg.Cal
	pcfg := s.c.cfg.Paxos
	// The consensus group is this shard's voting servers only — neither
	// the proxy node, other groups' servers, nor this group's readers are
	// Treplica members. Voters announce decided values and heartbeats to
	// the group's learners; a learner engine only listens.
	pcfg.Members = s.c.groups[s.group()].members
	if s.learner() {
		pcfg.Learner = true
	} else {
		pcfg.Learners = s.c.groups[s.group()].learners
	}
	cfg := core.Config{
		FastPaxos:          s.c.cfg.FastPaxos,
		CheckpointInterval: s.c.cfg.CheckpointInterval,
		RetainInstances:    s.c.cfg.RetainInstances,
		ActionSize:         tpcw.ActionSize,
		Paxos:              pcfg,
		SequentialRecovery: s.c.cfg.SequentialRecovery,
		Machine: func() core.StateMachine {
			s.store = s.c.cfg.Store()
			return &serverMachine{s: s}
		},
		OnCheckpoint: func(size int64) {
			// Serialization pause: the CPU is busy, queueing requests.
			// With incremental checkpoints size is the delta, so both
			// the pause and the disk write shrink to O(recent writes).
			s.c.ckptWrites++
			s.c.ckptBytes += size
			s.cpu.Acquire(cal.checkpointPause(size), nil)
		},
		OnReady: func() {
			// A fresh (never-crashed) server is operational as soon as
			// its state is in place; a recovering one waits for
			// OnRecovered plus replay drain.
			if s.replica.Recovered() {
				s.caughtUp = true
			}
			// Re-arm resolution for any prepared branch this incarnation
			// restored from checkpoint + log (txn.go): a participant
			// crash between prepare and outcome must not strand the
			// branch or its blocked keys.
			s.armTxnRecovery()
		},
		OnRecovered: func() {
			// The consensus layer is re-synchronized, but the replayed
			// backlog still occupies the CPU; the replica is
			// operational once that drains.
			s.awaitReplayDrain()
		},
		OnTxnStaged: func(id string, home int) {
			// Every staged branch gets a resolution loop the moment its
			// prepare record applies — including records replayed after
			// the readiness rescans ran, which is the one window those
			// rescans cannot see (coordinator crash after deciding, its
			// own branch replaying into the fresh incarnation).
			if !s.learner() {
				s.armTxnResolve(id, home)
			}
		},
	}
	if s.c.cfg.FullCheckpoints {
		cfg.MaxDeltaChain = -1 // every checkpoint a full base
	}
	s.replica = core.NewReplica(cfg)
	s.replica.Start(e)
}

// awaitReplayDrain polls the CPU queue and declares the server recovered
// when the replay work is done.
func (s *Server) awaitReplayDrain() {
	if s.cpu.QueueLen() == 0 {
		s.caughtUp = true
		// The replayed log suffix may have staged branches beyond what
		// the checkpoint (scanned at OnReady) carried: rescan now that
		// replay has drained.
		s.armTxnRecovery()
		if s.c.cfg.OnRecovered != nil {
			s.c.cfg.OnRecovered(s.idx, s.e.Now())
		}
		return
	}
	s.e.After(250*time.Millisecond, s.awaitReplayDrain)
}

// operational reports whether this server should pass health probes.
func (s *Server) operational() bool {
	if s.replica == nil || !s.replica.Ready() {
		return false
	}
	if !s.replica.Recovered() {
		return false
	}
	return s.caughtUp
}

// Receive implements env.Node: it multiplexes proxy traffic and consensus
// traffic.
func (s *Server) Receive(from env.NodeID, msg env.Message) {
	switch m := msg.(type) {
	case *reqMsg:
		// Copy out and release before handling, which may send (freelist.go).
		v := *m
		s.c.reqs.put(m)
		s.handleRequest(from, v)
	case txnPrepareMsg:
		s.onTxnPrepare(from, m)
	case txnVoteMsg:
		s.onTxnVote(m)
	case txnOutcomeMsg:
		s.onTxnOutcome(from, m)
	case txnAckMsg:
		s.onTxnAck(m)
	case txnStatusMsg:
		s.onTxnStatus(from, m)
	case txnStatusRespMsg:
		s.onTxnStatusResp(m)
	case probeMsg:
		// The probe is an HTTP request: it queues on the same CPU as
		// real requests, so a server drowning in replay work misses
		// the probe deadline exactly like a real Tomcat would.
		s.cpu.Acquire(200*time.Microsecond, func() {
			s.e.Send(from, probeRespMsg{Seq: m.Seq, OK: s.operational()})
		})
	default:
		s.replica.Receive(from, msg)
	}
}

// serverMachine wraps the bookstore store to charge the active-replication
// CPU cost: every replica executes every write, and the consensus leader
// additionally pays per-peer messaging cost per ordered action.
type serverMachine struct {
	s *Server
}

func (m *serverMachine) Execute(action any) any {
	result := m.s.store.Apply(action)
	cal := &m.s.c.cfg.Cal
	cost := cal.applyCPU(action)
	if m.s.replica != nil && m.s.replica.IsLeader() {
		cost += time.Duration(m.s.c.cfg.Servers) * cal.LeaderMsgCPU
	}
	// JVM old-generation promotion: enough of it triggers a
	// stop-the-world collection proportional to the live set.
	m.s.promoted += cal.actionPromoted(action)
	if cal.GCPromotedLimit > 0 && m.s.promoted >= cal.GCPromotedLimit {
		m.s.promoted = 0
		cost += cal.gcPause(m.s.store.NominalBytes())
	}
	m.s.cpu.Acquire(cost, nil)
	return result
}

func (m *serverMachine) Snapshot() (any, int64) { return m.s.store.Snapshot() }
func (m *serverMachine) Restore(data any)       { m.s.store.Restore(data) }

// The transaction-staging capability (core.TxnStager) delegates the
// prepare-time vote to the bookstore's read-only branch validation.
func (m *serverMachine) StageTxn(action any) string { return m.s.store.StageTxn(action) }

// The incremental-checkpoint capability (core.DeltaSnapshotter)
// delegates to the bookstore's dirty-row tracking; like Restore, replay
// cost during recovery is modeled by the disk reads, not the CPU.
func (m *serverMachine) SnapshotDelta() (any, int64, bool) { return m.s.store.SnapshotDelta() }
func (m *serverMachine) ApplyDelta(data any)               { m.s.store.ApplyDelta(data) }

// The partition-migration capability (core.PartitionedMachine) delegates
// to the bookstore; merging an import pauses the server CPU like the
// deserialization of a checkpoint of the moved bytes would.
func (m *serverMachine) ExportOwned(owned func(string) bool) (any, int64) {
	return m.s.store.ExportOwned(owned)
}

func (m *serverMachine) ImportOwned(data any) {
	m.s.store.ImportOwned(data)
	if ps, ok := data.(tpcw.PartitionSnap); ok {
		m.s.cpu.Acquire(m.s.c.cfg.Cal.checkpointPause(ps.NominalBytes), nil)
	}
}

func (m *serverMachine) DropOwned(owned func(string) bool) {
	m.s.store.DropOwned(owned)
}

// request is a server's record of one interaction it was sent: who asked,
// what, and where on its walk the interaction stands. A read walks fence
// wait → CPU slot → serve; a write walks txn gate → admit → parse → submit
// → applied → render. Whatever a hop waits on — a CPU slot, a pacing step,
// the ordered apply — is handed next or applied, bound once when the record
// is made, and the walk resumes at the recorded position: an interaction in
// steady state allocates neither record nor continuation. Records are
// recycled through Server.free, which lives and dies with its incarnation
// (a fresh Server is built per restart, so no record crosses a crash). A
// walk is one chain — ReadAt runs exactly one of its two callbacks, a
// submitted action completes exactly once — and every exit is send, which
// releases the record and does not touch it again.
type request struct {
	s     *Server
	proxy env.NodeID
	m     reqMsg
	at    stage

	// Write path.
	deadline  time.Time   // admission hold: shed once past it
	now       time.Time   // the action's timestamp, taken when parsing ends
	cart      tpcw.CartID // the cart a purchase proceeds with
	cartFirst bool        // the action in flight creates that cart; the purchase follows
	resp      respMsg     // the answer being rendered

	next    func() // resume at r.at
	applied func(result any, inst paxos.InstanceID, err error)
}

// stage is where a waiting request resumes.
type stage uint8

const (
	atServe  stage = iota // read: the CPU slot ended; query and answer
	atAdmit               // write: ask the admission gate (again)
	atParse               // write: admitted; take the parse slot
	atSubmit              // write: parsed; build and submit the action
	atRender              // write: the render slot ended; answer
)

// newRequest returns the record of one interaction: a recycled one or, its
// continuations not yet bound, a new one.
func (s *Server) newRequest(proxy env.NodeID, m reqMsg) *request {
	r := s.free.get()
	if r.next == nil {
		r.next, r.applied = r.resume, r.onApplied
	}
	r.s, r.proxy, r.m = s, proxy, m
	return r
}

// idleRequest is what an answered record keeps on the free list.
func idleRequest(r *request) request { return request{next: r.next, applied: r.applied} }

// then records where the walk resumes and returns the continuation to hand
// to whatever the request waits on.
func (r *request) then(at stage) func() {
	r.at = at
	return r.next
}

func (r *request) resume() {
	switch r.at {
	case atServe:
		r.serve()
	case atAdmit:
		r.admit()
	case atParse:
		r.parse()
	case atSubmit:
		r.submit()
	case atRender:
		r.send(r.resp)
	}
}

// send answers the proxy and ends the walk.
func (r *request) send(m respMsg) {
	s, proxy := r.s, r.proxy
	s.free.put(r)
	s.respond(proxy, m)
}

// respond sends m to the proxy in a wire record, the proxy's from here on.
func (s *Server) respond(proxy env.NodeID, m respMsg) {
	w := s.c.resps.get()
	*w = m
	s.e.Send(proxy, w)
}

// handleRequest serves one web interaction.
func (s *Server) handleRequest(proxy env.NodeID, m reqMsg) {
	if s.replica == nil || !s.replica.Ready() {
		s.respond(proxy, respMsg{ID: m.ID, Resp: rbe.Response{Err: true}})
		return
	}
	if s.c.GroupOf(m.Req.Client) != s.group() {
		// The session moved to another group while this request was in
		// flight (routing-epoch cutover): redirect, don't serve stale.
		s.respond(proxy, respMsg{ID: m.ID, Resp: rbe.Response{Err: true}, WrongEpoch: true})
		return
	}
	// Gray failure, error flavor: the request machinery fails a fraction
	// of real requests fast while the probe path above keeps answering OK
	// — the prober cannot see this fault.
	if r := s.c.servers[s.idx].grayErr; r > 0 && s.e.Rand().Float64() < r {
		s.respond(proxy, respMsg{ID: m.ID, Resp: rbe.Response{Err: true}})
		return
	}
	if !m.Req.Kind.IsWrite() {
		r := s.newRequest(proxy, m)
		if m.Fence > 0 && s.replica.LastApplied() < m.Fence {
			// Fenced read behind the session's commit index: wait for the
			// replica to catch up, bounded; past the bound, answer
			// TooStale so the proxy retries on a fresher server.
			s.c.groups[s.group()].fenceWaits++
			s.replica.ReadAt(m.Fence, s.c.cfg.Cal.FenceWait,
				func(core.StateMachine, paxos.InstanceID) { r.read() },
				func() {
					s.c.groups[s.group()].staleServes++
					r.send(respMsg{ID: r.m.ID, Resp: rbe.Response{Err: true}, TooStale: true})
				})
			return
		}
		r.read()
		return
	}
	if s.learner() {
		// Read-only server: the proxy never routes writes here, but a
		// raced dispatch must not wedge — fail it back for a retry.
		s.respond(proxy, respMsg{ID: m.ID, Resp: rbe.Response{Err: true}})
		return
	}
	// Writes whose keys conflict with a prepared transaction branch hold
	// at the tier boundary until the outcome record releases them
	// (txn.go); with no prepared branches — always true on the
	// single-group fast path — the gate is a plain passthrough.
	s.withTxnGate(s.newRequest(proxy, m))
}

// read queues a read for its CPU slot; serve answers it when the slot ends.
func (r *request) read() {
	s := r.s
	s.cpu.Acquire(s.graySvc(s.c.cfg.Cal.readService(r.m.Req.Kind)), r.then(atServe))
}

func (r *request) serve() {
	s := r.s
	if r.m.Fence > 0 && s.replica.LastApplied() < r.m.Fence {
		// Serving below the fence would break read-your-writes;
		// ReadAt makes this unreachable, the counter proves it.
		s.c.fenceViolations++
	}
	resp := s.performRead(&r.m.Req)
	s.c.groups[s.group()].readsServed++
	r.send(respMsg{ID: r.m.ID, Resp: resp, Page: s.c.cfg.Cal.PageSize})
}

// graySvc inflates one request service charge under the slow-walk flavor
// of gray failure (Cluster.GrayFail with factor ≥ 1). Healthy servers pay
// d unchanged.
func (s *Server) graySvc(d time.Duration) time.Duration {
	if f := s.c.servers[s.idx].graySlow; f > 1 {
		return time.Duration(float64(d) * f)
	}
	return d
}

// Admission pacing: the step a slowed or held write waits before
// (re)entering, and how long a write may be held under AdmissionStop
// before it is shed. The deadline is far below the proxy's request
// timeout, so a shed write fails fast instead of timing out.
const (
	admitPace         = 2 * time.Millisecond
	admitHoldDeadline = 500 * time.Millisecond
)

// gated is where a write leaves the txn gate: its admission hold is
// bounded from here.
func (r *request) gated() {
	r.deadline = r.s.e.Now().Add(admitHoldDeadline)
	r.admit()
}

// admit is the one write-admission gate: it reads the exact grade of the
// proposer whose queue the write would join. AdmissionSlowdown delays the
// write one pacing step; AdmissionStop holds it at the tier boundary —
// re-checking every step until the proposer backlog drains — and sheds it
// once the deadline passes. Overload thus degrades to queueing latency at
// the tier boundary instead of consensus retry-timeout storms. Each
// decision is counted in the proxy's stats, where clients' errors are.
func (r *request) admit() {
	s := r.s
	st := &s.c.proxy.Stats
	switch s.replica.AdmissionState() {
	case paxos.AdmissionStop:
		if !s.e.Now().Before(r.deadline) {
			st.AdmShed++
			r.drop()
			return
		}
		st.AdmHeld++
		s.e.After(admitPace, r.then(atAdmit))
	case paxos.AdmissionSlowdown:
		st.AdmPaced++
		s.e.After(admitPace, r.then(atParse))
	default:
		r.parse()
	}
}

func (r *request) parse() {
	s := r.s
	s.cpu.Acquire(s.graySvc(s.c.cfg.Cal.WriteParse), r.then(atSubmit))
}

// drop fails a write that never got past the gates, without a render slot.
func (r *request) drop() {
	r.send(respMsg{ID: r.m.ID, Resp: rbe.Response{Err: true}})
}

// reply sends a write result back through a render slot. commit is the
// log instance the write applied at (zero on errors): the proxy folds it
// into the session's read-your-writes fence.
func (r *request) reply(resp rbe.Response, commit paxos.InstanceID) {
	s := r.s
	r.resp = respMsg{ID: r.m.ID, Resp: resp, Page: s.c.cfg.Cal.PageSize, Commit: commit}
	s.cpu.Acquire(s.graySvc(s.c.cfg.Cal.WriteRender), r.then(atRender))
}

func (r *request) fail() { r.reply(rbe.Response{Err: true}, 0) }

// submit starts a parsed write. A purchase by a session that has no cart
// yet first orders the cart's creation with a (caller-chosen) random item,
// as TPC-W prescribes; onApplied comes back to act with it.
func (r *request) submit() {
	s, req := r.s, &r.m.Req
	r.now, r.cart = s.e.Now(), req.Cart
	switch req.Kind {
	case rbe.BuyRequest, rbe.BuyConfirm, rbe.GiftPurchase:
		if r.cart == 0 {
			r.cartFirst = true
			s.replica.SubmitIndexed(tpcw.CartUpdateAction{RandomItem: req.Item, Now: r.now}, r.applied)
			return
		}
	}
	r.act()
}

// act builds the deterministic action for a write interaction — resolving
// timestamps and random values here, in the facade, before the action is
// submitted (paper §4, task II); onApplied replies when the action has
// been ordered and applied locally.
func (r *request) act() {
	s, req, now, rng := r.s, &r.m.Req, r.now, r.s.e.Rand()
	var action any
	switch req.Kind {
	case rbe.ShoppingCart:
		action = tpcw.CartUpdateAction{
			Cart:       req.Cart,
			AddItem:    req.Item,
			AddQty:     req.Qty,
			RandomItem: req.Item,
			Now:        now,
		}

	case rbe.CustomerRegistration:
		action = tpcw.CreateCustomerAction{
			FName:     numbered("F", rng.Intn(10000), ""),
			LName:     numbered("L", rng.Intn(10000), ""),
			Street1:   numbered("", rng.Intn(999), " Web St"),
			City:      numbered("City", rng.Intn(500), ""),
			State:     "ST",
			Zip:       strconv.Itoa(10000 + rng.Intn(89999)),
			Country:   tpcw.CountryID(rng.Intn(92) + 1),
			Phone:     strconv.Itoa(1000000000 + int(rng.Int63n(899999999))),
			Email:     "x@example.com",
			BirthDate: now.AddDate(-18-rng.Intn(60), 0, 0),
			Data:      "data",
			Discount:  float64(rng.Intn(51)), // random discount, drawn pre-submit
			Now:       now,
		}

	case rbe.BuyRequest:
		action = tpcw.RefreshSessionAction{Customer: req.Customer, Now: now}

	case rbe.BuyConfirm:
		action = tpcw.BuyConfirmAction{
			Cart:     r.cart,
			Customer: req.Customer,
			CCType:   "VISA",
			CCNum:    "4111111111111111",
			CCName:   "Card Holder",
			CCExpire: now.AddDate(2, 0, 0),
			ShipType: "AIR",
			ShipDate: now.AddDate(0, 0, 1+rng.Intn(7)), // random pre-submit
			Now:      now,
		}

	case rbe.AdminConfirm:
		item, ok := s.store.GetBook(req.Item)
		if !ok {
			r.fail()
			return
		}
		action = tpcw.AdminUpdateAction{
			Item:      req.Item,
			Cost:      item.SRP * (0.5 + rng.Float64()*0.5), // random pre-submit
			Image:     numbered("img/full/new", rng.Intn(1000), ""),
			Thumbnail: numbered("img/thumb/new", rng.Intn(1000), ""),
			Now:       now,
		}

	case rbe.GiftPurchase:
		s.performGiftPurchase(r)
		return

	case rbe.StockSweep:
		s.performStockSweep(r)
		return

	default:
		r.fail()
		return
	}
	s.replica.SubmitIndexed(action, r.applied)
}

// numbered returns prefix, n in decimal and suffix as one string, built in
// one allocation (concatenating strconv.Itoa's result takes two).
func numbered(prefix string, n int, suffix string) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = strconv.AppendInt(b, int64(n), 10)
	return string(append(b, suffix...))
}

// onApplied takes the local result of the action the request had ordered:
// the missing cart's creation, after which the purchase itself goes out,
// or the interaction's own action, whose result becomes the reply.
func (r *request) onApplied(result any, inst paxos.InstanceID, err error) {
	ok := err == nil
	if r.cartFirst {
		cr, is := result.(tpcw.CartResult)
		if !ok || !is || cr.Err != "" {
			r.fail()
			return
		}
		r.cartFirst, r.cart = false, cr.Cart.ID
		r.act()
		return
	}
	var resp rbe.Response
	switch r.m.Req.Kind {
	case rbe.ShoppingCart:
		cr, is := result.(tpcw.CartResult)
		ok = ok && is && cr.Err == ""
		resp.Cart = cr.Cart.ID
	case rbe.CustomerRegistration:
		cr, is := result.(tpcw.CreateCustomerResult)
		if ok = ok && is; ok {
			resp.Customer, resp.UName = cr.Customer, tpcw.UserName(cr.Customer)
		}
	case rbe.BuyRequest:
		resp.Cart = r.cart
	case rbe.BuyConfirm:
		br, is := result.(tpcw.BuyConfirmResult)
		ok = ok && is && br.Err == ""
		resp.Order = br.Order
	case rbe.GiftPurchase: // the single-group form (txn.go)
		gr, is := result.(tpcw.GiftOrderResult)
		ok = ok && is && gr.Err == ""
		resp.Order = gr.Order
	}
	if !ok {
		r.fail()
		return
	}
	r.reply(resp, inst)
}

// performRead serves the read-only interactions directly from the local
// replica (no total ordering; paper §5.2). Its lookups read the rows in place
// and copy none out: the response carries nothing of them.
func (s *Server) performRead(req *rbe.Request) rbe.Response {
	st := s.store
	switch req.Kind {
	case rbe.Home:
		st.BookAuthor(req.Item)
		if rel, ok := st.GetRelated(req.Item); ok {
			for _, r := range rel {
				st.BookAuthor(r)
			}
		}
	case rbe.NewProducts:
		for _, id := range st.GetNewProducts(req.Subject) {
			st.BookAuthor(id)
		}
	case rbe.BestSellers:
		for _, bs := range st.GetBestSellers(req.Subject) {
			st.BookAuthor(bs.Item)
		}
	case rbe.ProductDetail:
		if author, ok := st.BookAuthor(req.Item); ok {
			st.GetAuthor(author)
		}
	case rbe.SearchRequest:
		// Static form page.
	case rbe.SearchResults:
		for _, id := range st.DoSearch(req.SearchKind, req.SearchTerm) {
			st.BookAuthor(id)
		}
	case rbe.OrderInquiry:
		// Static form page.
	case rbe.OrderDisplay:
		c, ok := req.Customer, true
		if req.UName != "" {
			c, ok = st.UserID(req.UName)
		}
		if ok {
			st.MostRecentOrder(c)
		}
	case rbe.AdminRequest:
		st.BookAuthor(req.Item)
	}
	return rbe.Response{}
}

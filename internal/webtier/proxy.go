package webtier

import (
	"sort"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/sim"
)

// Proxy models the HAProxy node of the paper's setup (§5.1, Figure 2):
//
//   - it actively probes every server with an HTTP-like health check and
//     removes a server from rotation after 4 unsuccessful probes, re-adding
//     it when a probe succeeds again;
//   - it balances requests across the in-rotation servers with a hash of
//     the unique client identifier;
//   - a request in flight on a server that crashes is observed by the
//     client as an error (the closed connection), while requests to a dead
//     server that were not yet sent are transparently redispatched
//     (connection refused → next server); idempotent reads interrupted
//     mid-flight are also redispatched once, writes are not;
//   - a read whose reply never returns — a server gone silent under
//     one-way loss or a partition, where no connection reset ever arrives
//     — is redispatched once on timeout, away from the silent server;
//     timed-out writes still surface as client errors (they may have
//     executed server-side).
type Proxy struct {
	c *Cluster
	e env.Env

	cpu    *sim.Resource
	nextID int64

	outstanding map[int64]*outReq
	free        freeList[outReq] // finished records awaiting reuse; see outReq
	scratch     []int            // candidates' result, valid until its next call

	health     []serverHealth // by flat server index
	probeTimer env.Timer      // probeLoop's, re-armed at its end
	probeSeq   int64
	probes     map[int64]int // probe seq -> server index

	// outages tracks complete outages per shard group for the availability
	// measure: with one group this is the paper's full-outage time; with
	// several, each group's client slice is accounted separately so a
	// healthy group cannot mask another's outage.
	outages []outageClock

	// sessFence tracks each session's highest acked commit index (an
	// index into its group's ordered log), attached as a fence on the
	// session's subsequent reads so it always reads its own writes —
	// across server switches, crashes, and rotation onto lagging
	// learners. Maintained at every Readers setting: even with no
	// learner readers, reads rotate across the group's voters, and a
	// non-leader voter may trail the session's last acked write. The
	// fence is meaningful only within the group whose log indexed it, so
	// it carries its group and resets when the session migrates (the
	// cutover itself guarantees the new group holds the session's data).
	sessFence map[int64]fenceEntry

	// rrSeq rotates read dispatch across the read-serving candidates
	// (voters + readers) per request, instead of pinning a client's
	// reads to one server by hash: a single hot client then scales with
	// the read-serving node count. Writes keep hash affinity.
	rrSeq uint64

	// Diagnostics: why client errors happened.
	Stats ProxyStats
}

// serverHealth is the proxy's view of one server.
type serverHealth struct {
	up        bool // in rotation
	failCount int  // consecutive failed probes

	// inflight counts outstanding requests. Read dispatch picks the
	// least-loaded candidate (rotation breaks ties): queues equalize across
	// unevenly-loaded nodes, so reads drain toward the learners, which
	// carry no write-serving or proposal work — uniform rotation would
	// instead bottleneck on the busiest voter and strand that headroom.
	inflight int

	// Request-level health: an EWMA of served-traffic quality (errors and
	// excessive latency). A gray-failed server answers every probe — the
	// probe path never touches the request machinery — so probe-based
	// eviction alone cannot catch it; the EWMA evicts on what clients
	// actually experience and quarantines the server so the very probes
	// that are blind to the fault cannot immediately re-admit it.
	errEwma         float64
	qualSamples     int
	quarantineUntil time.Time
}

// outageClock accumulates one group's complete-outage time: since is when
// the open outage began (zero while the group serves).
type outageClock struct {
	since time.Time
	total time.Duration
}

// ProxyStats counts client-visible error causes, for tests and
// diagnostics.
type ProxyStats struct {
	ErrTimeout    int
	ErrReset      int
	ErrNoServer   int
	ErrServerSide int
	Redispatched  int

	// EpochRedirects counts requests that raced a routing-epoch cutover
	// (served group changed between dispatch and arrival) and were
	// transparently re-routed instead of failed.
	EpochRedirects int

	// Requeued counts write dispatches held back because their session
	// slice was mid-handoff (delayed until cutover, never failed).
	Requeued int

	// StaleRedispatched counts fenced reads a reader answered TooStale
	// (it could not catch up to the fence within the staleness bound)
	// that were transparently re-routed to the voters, which by
	// definition hold every acked write.
	StaleRedispatched int

	// Write-admission activity, counted by the servers' gate
	// (request.admit) where it decides on its replica's exact grade:
	// writes paced one step under Slowdown, re-checks of a write held
	// under Stop, and holds that exhausted the deadline and were shed as
	// fast client errors.
	AdmPaced int
	AdmHeld  int
	AdmShed  int

	// QualityEvictions counts servers pulled from rotation by the
	// request-level health signal (error/latency EWMA) rather than probe
	// failures — the gray-failure escape hatch.
	QualityEvictions int
}

// fenceEntry is one session's read-your-writes fence: the highest acked
// commit index, valid only against the group whose ordered log it
// indexes.
type fenceEntry struct {
	group int
	idx   paxos.InstanceID
}

// outReq is the proxy's record of one client interaction, from Do to
// finish, across every attempt. Records are recycled through Proxy.free —
// bounded by the peak in flight, which a closed loop bounds by its browsers
// — so a steady-state interaction allocates no record and no continuation.
// What recycling relies on:
//
//   - A record returns to the free list only in finish, by which point it
//     has left outstanding and its timer is stopped. Responses, expiries
//     and resets reach a request through outstanding by attempt ID, never
//     by a pointer kept elsewhere, so an old attempt's late response or a
//     stopped timer's slot finds nothing; and a requeue continuation
//     (redispatch) is pending only while the record is neither outstanding
//     nor finished, so none outlives its request.
//   - finish takes done out of the record and calls it last, touching the
//     record no more: done may re-enter Do synchronously (a client's
//     reload retry) and be handed this very record.
//   - Each attempt's reqMsg is a wire record of its own, filled with a copy
//     of req — never a pointer into the record a later life rewrites — and
//     the receiving server's from Send on (freelist.go).
//
// Idle on the free list a record reads finished and keeps only what is bound
// to its address: the two continuations and the timer, which every life
// re-arms instead of making one.
type outReq struct {
	req       rbe.Request
	done      func(rbe.Response)
	server    int   // index into cluster servers
	curID     int64 // outstanding key of the current attempt
	attempts  int
	redirects int       // WrongEpoch re-routes (not balance retries)
	requeued  bool      // was held by a migration freeze (counted once)
	timer     env.Timer // expires the current attempt (curID); kept across lives
	armed     bool      // the timer was armed for this request and has not expired it
	finished  bool

	votersOnly   bool      // fenced read went TooStale: exclude readers
	staleRetries int       // TooStale re-routes taken
	sentAt       time.Time // when the current attempt left the proxy

	// The record's two continuations, bound once when it is first made:
	// (re)dispatch it, and expire whichever attempt is current.
	redispatch, expire func()
}

// newReq returns a record for one interaction: a recycled one or, its
// continuations not yet bound, a new one.
func (p *Proxy) newReq(req rbe.Request, done func(rbe.Response)) *outReq {
	r := p.free.get()
	if r.redispatch == nil {
		r.redispatch = func() { p.dispatch(r) }
		r.expire = func() { p.expire(r.curID) }
	}
	r.req, r.done, r.finished = req, done, false
	return r
}

// idleOutReq is what a finished record keeps on the free list.
func idleOutReq(r *outReq) outReq {
	return outReq{finished: true, timer: r.timer, redispatch: r.redispatch, expire: r.expire}
}

var _ env.Node = (*Proxy)(nil)

// Start implements env.Node.
func (p *Proxy) Start(e env.Env) {
	p.e = e
	p.cpu = sim.NewResource(p.c.sim, 2)
	p.outstanding = make(map[int64]*outReq)
	p.probes = make(map[int64]int)
	p.sessFence = make(map[int64]fenceEntry)
	p.free.idle = idleOutReq
	p.grow()
	p.probeTimer = p.e.After(p.c.cfg.Cal.ProbeInterval, p.probeLoop)
}

// Receive implements env.Node.
func (p *Proxy) Receive(from env.NodeID, msg env.Message) {
	switch m := msg.(type) {
	case *respMsg:
		// Copy out and release before handling, which may send (freelist.go).
		v := *m
		p.c.resps.put(m)
		p.onResponse(v)
	case probeRespMsg:
		p.onProbeResp(m)
	}
}

// Do accepts one client interaction. It must be called from simulator
// context (the RBE population runs inside the event loop).
func (p *Proxy) Do(req rbe.Request, done func(rbe.Response)) {
	p.cpu.Acquire(p.c.cfg.Cal.ProxyService, p.newReq(req, done).redispatch)
}

// dispatch routes a request to a live, in-rotation server of the group
// owning the client's session (with one shard, every server). The table
// is re-read on every dispatch, so a redispatch after a routing-epoch
// cutover lands on the session's new group.
func (p *Proxy) dispatch(r *outReq) {
	if r.req.Kind.IsWrite() && !r.finished && p.c.sessionFrozen(r.req.Client) {
		// The session's slice is mid-handoff: hold the write until the
		// new epoch publishes. The client observes added latency bounded
		// by the migration window, never an error. Counted once per
		// request, not per 10 ms retry tick.
		if !r.requeued {
			r.requeued = true
			p.Stats.Requeued++
		}
		p.e.After(10*time.Millisecond, r.redispatch)
		return
	}
	group := p.c.GroupOf(r.req.Client)
	read := !r.req.Kind.IsWrite()
	var candidates []int
	if read && !r.votersOnly {
		candidates = p.readCandidates(group)
	} else {
		candidates = p.candidates(group)
	}
	if r.attempts > 0 && len(candidates) > 1 {
		// A transparent retry must not re-land on the server that just
		// failed it: the client hash is deterministic, so over an
		// unchanged candidate set it would re-pick r.server every time.
		kept := candidates[:0]
		for _, c := range candidates {
			if c != r.server {
				kept = append(kept, c)
			}
		}
		candidates = kept
	}
	if len(candidates) == 0 {
		// The owning group is fully down: for this client slice the
		// service is out, which the availability measure counts.
		p.markNoService(group)
		p.Stats.ErrNoServer++
		p.finish(r, rbe.Response{Err: true})
		return
	}
	p.clearNoService(group)
	if read {
		// Least-outstanding over the read-serving set, the per-request
		// rotation breaking ties; see rrSeq and inflight. With Readers=0
		// the set is the group's voters: fenced reads then spread across
		// voting non-leader replicas instead of pinning to the client
		// hash, and the fence keeps read-your-writes intact on whichever
		// trailing voter they land.
		p.rrSeq++
		off := int(p.rrSeq % uint64(len(candidates)))
		pick := candidates[off]
		for k := 1; k < len(candidates); k++ {
			if c := candidates[(off+k)%len(candidates)]; p.health[c].inflight < p.health[pick].inflight {
				pick = c
			}
		}
		r.server = pick
	} else {
		r.server = candidates[int(hash64(uint64(r.req.Client))%uint64(len(candidates)))]
	}
	r.attempts++
	p.nextID++
	id := p.nextID
	p.outstanding[id] = r
	p.health[r.server].inflight++
	r.curID = id
	if !r.armed {
		// The timer follows the request across response-driven
		// redispatches: it expires whichever attempt is current (curID),
		// so a retry registered under a fresh ID after a server-side
		// error or epoch redirect keeps its timeout — without this, a
		// retry whose reply is lost (one-way loss) would hang forever.
		// Only the expire-path redispatch arms it again (it clears
		// r.armed first), so the worst-case client wait is 2×ReqTimeout:
		// one full timeout on the silent attempt plus one on its retry.
		r.armed = true
		if r.timer == nil {
			r.timer = p.e.After(p.c.cfg.Cal.ReqTimeout, r.expire)
		} else {
			r.timer.Reset(p.c.cfg.Cal.ReqTimeout)
		}
	}
	r.sentAt = p.e.Now()
	m := p.c.reqs.get()
	*m = reqMsg{ID: id, Req: r.req}
	if read {
		// Read-your-writes: fence the read at the session's last acked
		// commit index, whichever server it lands on. A fence minted in
		// another group's log (the session just migrated) is meaningless
		// here and is dropped — the cutover moved the data first.
		if f, ok := p.sessFence[r.req.Client]; ok && f.group == group {
			m.Fence = f.idx
		}
	}
	p.e.Send(p.c.servers[r.server].id, m)
}

// readCandidates returns the group's read-serving rotation: the voter
// candidates plus the group's up-and-accepting learner readers.
func (p *Proxy) readCandidates(group int) []int {
	p.scratch = p.serving(p.candidates(group), p.c.Readers(group))
	return p.scratch
}

// candidates returns the group's in-rotation servers that also accept
// connections right now (a dead or still-booting process refuses
// instantly, which HAProxy treats as an immediate dispatch failure, not a
// client error).
func (p *Proxy) candidates(group int) []int {
	p.scratch = p.serving(p.scratch[:0], p.c.Voters(group))
	return p.scratch
}

// serving appends to out those of servers that are up and accepting.
func (p *Proxy) serving(out, servers []int) []int {
	for _, i := range servers {
		if p.health[i].up && p.c.accepting(i) {
			out = append(out, i)
		}
	}
	return out
}

func (p *Proxy) onResponse(m respMsg) {
	r, ok := p.outstanding[m.ID]
	if !ok {
		return // superseded (redispatch) or expired
	}
	delete(p.outstanding, m.ID)
	p.health[r.server].inflight--
	if !m.WrongEpoch && !m.TooStale {
		// Epoch redirects and staleness fallbacks are routing outcomes,
		// not server sickness; everything else scores the server's
		// served-traffic quality.
		bad := m.Resp.Err ||
			(!r.sentAt.IsZero() && p.e.Now().Sub(r.sentAt) > qualityLatencyBad)
		p.recordQuality(r.server, bad)
	}
	if m.WrongEpoch && r.redirects < 4 {
		// The serving group changed between dispatch and arrival (a
		// routing cutover): the action was not executed, so any request
		// — writes included — re-routes under the current table. Not an
		// error and not a balance retry.
		r.redirects++
		if r.attempts > 0 {
			r.attempts--
		}
		p.Stats.EpochRedirects++
		p.dispatch(r)
		return
	}
	if m.TooStale && !r.req.Kind.IsWrite() && r.staleRetries < 2 {
		// The serving reader could not reach the session's fence within
		// the staleness bound. Fall back to the voters: every acked
		// write is applied (or about to be) on a quorum of them, so the
		// fence is satisfiable there.
		r.staleRetries++
		r.votersOnly = true
		p.Stats.StaleRedispatched++
		p.dispatch(r)
		return
	}
	if m.Resp.Err && !r.req.Kind.IsWrite() && r.attempts < 2 {
		// A read that failed server-side (e.g. still warming up) gets
		// one transparent retry.
		p.Stats.Redispatched++
		p.dispatch(r)
		return
	}
	if m.Resp.Err {
		p.Stats.ErrServerSide++
	}
	if r.req.Kind.IsWrite() && !m.Resp.Err && m.Commit > 0 {
		// The write's acked commit index becomes the session's new
		// read-your-writes fence (monotone within its group: a retried
		// older ack must not lower it; an ack from a different group —
		// the session migrated — replaces the now-meaningless old fence).
		g := p.c.GroupOfServer(r.server)
		f, ok := p.sessFence[r.req.Client]
		if !ok || f.group != g || m.Commit > f.idx {
			p.sessFence[r.req.Client] = fenceEntry{group: g, idx: m.Commit}
		}
	}
	p.finish(r, m.Resp)
}

// finish answers the client and recycles the record (see outReq).
func (p *Proxy) finish(r *outReq, resp rbe.Response) {
	if r.finished {
		return
	}
	r.finished = true
	if r.timer != nil {
		r.timer.Stop()
	}
	done := r.done
	p.free.put(r)
	done(resp)
}

func (p *Proxy) expire(id int64) {
	r, ok := p.outstanding[id]
	if !ok {
		return
	}
	delete(p.outstanding, id)
	p.health[r.server].inflight--
	p.recordQuality(r.server, true)
	if !r.req.Kind.IsWrite() && r.attempts < 2 {
		// The reply never came — a silent server (one-way loss: it heard
		// the request but its answer is lost) or a wedged one. Idempotent
		// reads get one redispatch with a fresh timer, away from the
		// server that went silent; writes may have executed there, so
		// they must surface as errors, which accuracy counts.
		r.armed = false
		p.Stats.Redispatched++
		p.dispatch(r)
		return
	}
	p.Stats.ErrTimeout++
	p.finish(r, rbe.Response{Err: true})
}

// onServerReset handles the TCP-level connection resets observed when a
// server process is killed: requests in flight there fail — reads are
// redispatched once (idempotent GETs), writes surface as client errors,
// which is what the paper's accuracy measure counts.
func (p *Proxy) onServerReset(server int) {
	// Iterate in request order so redispatches are deterministic.
	ids := make([]int64, 0, len(p.outstanding))
	for id, r := range p.outstanding {
		if r.server == server {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := p.outstanding[id]
		delete(p.outstanding, id)
		p.health[r.server].inflight--
		if !r.req.Kind.IsWrite() && r.attempts < 2 {
			p.Stats.Redispatched++
			p.dispatch(r)
			continue
		}
		p.Stats.ErrReset++
		p.finish(r, rbe.Response{Err: true})
	}
}

// Request-level health knobs. The latency threshold sits well above the
// worst legitimate stall a healthy server produces (a full-heap GC pause
// is under ~1 s) and well below the request timeout, so only genuinely
// sick service scores bad. The EWMA needs a minimum sample count before
// it may evict — a single unlucky request must not pull a server — and a
// quarantined server stays out of rotation for a fixed window even
// though its probes (blind to the fault by design) keep succeeding.
const (
	qualityAlpha      = 0.125
	qualityLatencyBad = 2 * time.Second
	qualityEvictScore = 0.5
	qualityMinSamples = 8
	qualityQuarantine = 15 * time.Second
)

// recordQuality folds one served-request outcome into the server's
// quality EWMA and evicts it from rotation when the served-traffic error
// level crosses the threshold — the request-level health signal that
// catches gray failures the probe path cannot see.
func (p *Proxy) recordQuality(srv int, bad bool) {
	sample := 0.0
	if bad {
		sample = 1
	}
	h := &p.health[srv]
	h.errEwma = (1-qualityAlpha)*h.errEwma + qualityAlpha*sample
	h.qualSamples++
	if !h.up || h.qualSamples < qualityMinSamples || h.errEwma < qualityEvictScore {
		return
	}
	// Never evict a group's last serving candidate: degraded service
	// beats no service, and the availability measure agrees.
	others := 0
	for _, c := range p.candidates(p.c.GroupOfServer(srv)) {
		if c != srv {
			others++
		}
	}
	if others == 0 {
		return
	}
	h.up = false
	h.quarantineUntil = p.e.Now().Add(qualityQuarantine)
	h.errEwma, h.qualSamples = 0, 0
	p.Stats.QualityEvictions++
}

// grow extends the proxy's per-server and per-group state to the cluster's
// — at start, and for servers added by a live rebalance. New servers enter
// rotation optimistically; until operational they refuse connections, which
// the dispatch and probe paths already treat as instant failures.
func (p *Proxy) grow() {
	for len(p.health) < len(p.c.servers) {
		p.health = append(p.health, serverHealth{up: true})
	}
	for len(p.outages) < len(p.c.groups) {
		p.outages = append(p.outages, outageClock{})
	}
}

// probeLoop sends one health probe per server per interval.
func (p *Proxy) probeLoop() {
	cal := p.c.cfg.Cal
	for i := range p.health {
		if !p.c.accepting(i) {
			// Connection refused: an instant probe failure.
			p.probeFailed(i)
			continue
		}
		p.probeSeq++
		seq := p.probeSeq
		p.probes[seq] = i
		p.e.Send(p.c.servers[i].id, probeMsg{Seq: seq})
		p.e.After(cal.ProbeTimeout, func() {
			if srv, pending := p.probes[seq]; pending {
				delete(p.probes, seq)
				p.probeFailed(srv)
			}
		})
	}
	p.probeTimer.Reset(cal.ProbeInterval)
}

func (p *Proxy) onProbeResp(m probeRespMsg) {
	srv, pending := p.probes[m.Seq]
	if !pending {
		return
	}
	delete(p.probes, m.Seq)
	if m.OK {
		p.health[srv].failCount = 0
		if p.e.Now().Before(p.health[srv].quarantineUntil) {
			// Quality-evicted: a succeeding probe proves nothing about the
			// request path (gray failures ack probes by design), so it
			// must not re-admit the server until the quarantine lapses.
			return
		}
		p.health[srv].up = true
		// A succeeding probe proves the group can serve again: stop its
		// outage clock even if no client of that slice has dispatched
		// since, so an idle group's downtime does not keep accruing
		// after it recovered.
		p.clearNoService(p.c.GroupOfServer(srv))
		return
	}
	p.probeFailed(srv)
}

func (p *Proxy) probeFailed(srv int) {
	h := &p.health[srv]
	h.failCount++
	if h.failCount >= p.c.cfg.Cal.ProbeFailures {
		h.up = false
	}
}

func (p *Proxy) markNoService(group int) {
	if o := &p.outages[group]; o.since.IsZero() {
		o.since = p.e.Now()
	}
}

func (p *Proxy) clearNoService(group int) {
	if o := &p.outages[group]; !o.since.IsZero() {
		o.total += p.e.Now().Sub(o.since)
		o.since = time.Time{}
	}
}

// GroupDowntimes returns each group's cumulative outage time, any open
// outage included.
func (p *Proxy) GroupDowntimes() []time.Duration {
	out := make([]time.Duration, len(p.outages))
	for g, o := range p.outages {
		out[g] = o.total
		if !o.since.IsZero() {
			out[g] += p.e.Now().Sub(o.since)
		}
	}
	return out
}

// Downtime returns the worst per-group cumulative outage time — with one
// shard, exactly the paper's full-outage time during which no server was
// available to take requests.
func (p *Proxy) Downtime() time.Duration {
	var worst time.Duration
	for _, d := range p.GroupDowntimes() {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// hash64 is a splitmix64 finalizer used for client-to-server hashing.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

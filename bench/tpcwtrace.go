package main

import (
	"sort"
	"time"
)

// The traced pass of the web-tier workloads. webtier.Cluster builds its own
// simulator, so no traced runtime can be put under it; what can be seen
// from outside is the browser-side client, the cluster's public counters,
// and a sampler on cluster.Sim() reading the replicas' public getters. The
// sampler only reads, and on virtual time reading costs nothing: the traced
// pass must reproduce the untraced pass's model numbers exactly.

const probeEvery = 100 * time.Millisecond

// prober samples consensus state ten times per virtual second and, after a
// crash, watches the victim come back.
type prober struct {
	r *tpcwRun

	queue, backlog, lag []float64
	lastLeader          []int
	leaderChanges       int

	// Recovery milestones of the crashed server: the bench restarted
	// the process; the replica loaded its checkpoint (Ready).
	restartedAt, readyAt time.Time

	samples []map[string]int64
}

func startProber(r *tpcwRun) *prober {
	p := &prober{r: r, lastLeader: make([]int, r.cfg.Shards)}
	for g := range p.lastLeader {
		p.lastLeader[g] = -1
	}
	r.s.After(probeEvery, p.tick)
	return p
}

func (p *prober) tick() {
	r := p.r
	now := r.s.Now()
	if r.victim >= 0 && p.readyAt.IsZero() {
		if rep := r.cluster.Replica(r.victim); rep != nil {
			if p.restartedAt.IsZero() {
				p.restartedAt = now
			}
			if rep.Ready() {
				p.readyAt = now
			}
		}
	}
	if now.Before(r.cl.to) {
		for g := 0; g < r.cfg.Shards; g++ {
			p.sample(g, now)
		}
	} else if r.victim < 0 || !p.readyAt.IsZero() {
		return // nothing left to watch
	}
	r.s.After(probeEvery, p.tick)
}

func (p *prober) sample(g int, now time.Time) {
	c := p.r.cluster
	l := c.LeaderOf(g)
	if l < 0 {
		return
	}
	if last := p.lastLeader[g]; last >= 0 && last != l {
		p.leaderChanges++
	}
	p.lastLeader[g] = l
	lead := c.Replica(l)
	en := lead.Engine()
	if en == nil {
		return
	}
	slowest := lead.LastApplied()
	for i := g * p.r.cfg.Servers; i < (g+1)*p.r.cfg.Servers; i++ {
		if rep := c.Replica(i); rep != nil && rep.Ready() && rep.LastApplied() < slowest {
			slowest = rep.LastApplied()
		}
	}
	q, b, lag := int64(en.QueueDepth()), en.Backlog(), int64(lead.LastApplied()-slowest)
	p.queue = append(p.queue, float64(q))
	p.backlog = append(p.backlog, float64(b))
	p.lag = append(p.lag, float64(lag))
	if len(p.samples) < maxSpans {
		p.samples = append(p.samples, map[string]int64{
			"at_ns": now.UnixNano(), "group": int64(g), "leader": int64(l),
			"queue_depth": q, "backlog": b, "follower_lag": lag,
		})
	}
}

func p99Of(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 99)
	return v
}

// layerMetrics fills the per-layer results of a traced web-tier pass and
// writes its trace file.
func (r *tpcwRun) layerMetrics(p *pass, seed uint64, probe *prober, ckptW0, ckptB0 int64) {
	c, cl := r.cluster, r.cl
	L := map[string]float64{}
	p.Layer = L
	read, write := sortedMs(cl.lat[opRead]), sortedMs(cl.lat[opWrite])
	L["webtier.read_p50_ms"], _ = percentile(read, 50)
	L["webtier.read_p99_ms"], _ = percentile(read, 99)
	L["webtier.write_p50_ms"], _ = percentile(write, 50)
	L["webtier.write_p99_ms"], _ = percentile(write, 99)
	L["webtier.client_retries"] = float64(cl.retried)
	L["webtier.awips"] = p.Model["awips"]

	ps := c.ProxyStats()
	L["webtier.redispatched"] = float64(ps.Redispatched)
	L["webtier.err_timeout"] = float64(ps.ErrTimeout)
	L["webtier.err_reset"] = float64(ps.ErrReset)
	L["webtier.err_no_server"] = float64(ps.ErrNoServer)
	L["webtier.adm_paced"] = float64(ps.AdmPaced)
	L["webtier.adm_held"] = float64(ps.AdmHeld)
	L["webtier.adm_shed"] = float64(ps.AdmShed)
	L["webtier.stale_redispatched"] = float64(ps.StaleRedispatched)
	L["webtier.quality_evictions"] = float64(ps.QualityEvictions)
	for g := 0; g < r.cfg.Shards; g++ {
		_, waits, stale := c.ReadStats(g)
		L["webtier.fence_waits"] += float64(waits)
		L["webtier.stale_serves"] += float64(stale)
		commits, aborts, blocked := c.TxnStats(g)
		L["webtier.txn_commits"] += float64(commits)
		L["webtier.txn_aborts"] += float64(aborts)
		L["webtier.txn_blocked_ms"] += float64(blocked) / 1e6
	}
	L["webtier.txn_p50_ms"] = p.Model["txn_p50_ms"]
	L["webtier.txn_p90_ms"] = p.Model["txn_p90_ms"]
	L["webtier.failover_gap_ms"] = p.Model["failover_gap_ms"]

	w, b := c.CheckpointIO()
	L["core.ckpt_writes"] = float64(w - ckptW0)
	L["core.ckpt_mb"] = float64(b-ckptB0) / 1e6
	for i := 0; i < c.TotalServers(); i++ {
		if rep := c.Replica(i); rep != nil {
			bases, deltas, _ := rep.CheckpointStats()
			L["core.ckpt_bases"] += float64(bases)
			L["core.ckpt_deltas"] += float64(deltas)
		}
	}
	L["paxos.queue_depth_p99"] = p99Of(probe.queue)
	L["paxos.backlog_p99"] = p99Of(probe.backlog)
	L["core.follower_lag_p99"] = p99Of(probe.lag)
	L["paxos.leader_changes"] = float64(probe.leaderChanges)

	if r.victim >= 0 && !r.recoveredAt.IsZero() {
		// Consecutive segments, so they sum to the whole by construction;
		// the first two are read at probeEvery resolution.
		L["core.recovery_s"] = p.Model["recovery_s"]
		L["core.recover_restart_s"] = probe.restartedAt.Sub(r.crashedAt).Seconds()
		L["core.recover_load_s"] = probe.readyAt.Sub(probe.restartedAt).Seconds()
		L["core.recover_resync_s"] = r.recoveredAt.Sub(probe.readyAt).Seconds()
		if probe.readyAt.IsZero() || probe.readyAt.After(r.recoveredAt) {
			p.problemf("recovery milestones out of order: restarted %v ready %v recovered %v",
				probe.restartedAt, probe.readyAt, r.recoveredAt)
		}
	}

	var most, total int64
	for _, n := range cl.perGroup {
		most = max(most, n)
		total += n
	}
	L["shard.group_imbalance"] = float64(most) * float64(len(cl.perGroup)) / float64(max(total, 1))

	if err := writeTrace(traceFile{
		Workload: r.cfg.Name,
		Seed:     seed,
		Clocks:   "requests and samples: virtual ns since the simulator's epoch; id is the client session",
		Requests: cl.requests,
		Samples:  probe.samples,
		Layer:    L,
	}); err != nil {
		p.problemf("%v", err)
	}
}

package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/paxos"
	"robuststore/internal/sim"
)

// kvMachine is a deterministic test state machine: a map of counters.
type kvMachine struct {
	counts map[string]int64
	ops    int64
}

type incAction struct {
	Key   string
	Delta int64
}

func newKVMachine() *kvMachine { return &kvMachine{counts: make(map[string]int64)} }

func (m *kvMachine) Execute(action any) any {
	a, ok := action.(incAction)
	if !ok {
		return nil
	}
	m.counts[a.Key] += a.Delta
	m.ops++
	return m.counts[a.Key]
}

func (m *kvMachine) Snapshot() (any, int64) {
	cp := make(map[string]int64, len(m.counts))
	for k, v := range m.counts {
		cp[k] = v
	}
	return snapPayload{Counts: cp, Ops: m.ops}, int64(64 + 32*len(cp))
}

type snapPayload struct {
	Counts map[string]int64
	Ops    int64
}

func (m *kvMachine) Restore(data any) {
	p, ok := data.(snapPayload)
	if !ok {
		return
	}
	m.counts = make(map[string]int64, len(p.Counts))
	for k, v := range p.Counts {
		m.counts[k] = v
	}
	m.ops = p.Ops
}

// coreCluster wires Replicas into the simulator.
type coreCluster struct {
	s         *sim.Sim
	replicas  []*Replica
	machines  []*kvMachine
	recovered []int // OnRecovered count per node
	cfg       func(id int) Config
}

func newCoreCluster(t *testing.T, n int, seed uint64, tweak func(id int, c *Config)) *coreCluster {
	t.Helper()
	c := &coreCluster{
		replicas:  make([]*Replica, n),
		machines:  make([]*kvMachine, n),
		recovered: make([]int, n),
	}
	c.s = sim.New(sim.Config{Seed: seed})
	for i := 0; i < n; i++ {
		id := i
		c.s.AddNode(func() env.Node {
			cfg := Config{
				FastPaxos:          false,
				CheckpointInterval: 30 * time.Second,
				Paxos:              paxos.Config{BatchDelay: 2 * time.Millisecond},
				Machine: func() StateMachine {
					m := newKVMachine()
					c.machines[id] = m
					return m
				},
				OnRecovered: func() { c.recovered[id]++ },
			}
			if tweak != nil {
				tweak(id, &cfg)
			}
			r := NewReplica(cfg)
			c.replicas[id] = r
			return r
		})
	}
	c.s.StartAll()
	return c
}

func (c *coreCluster) submit(d time.Duration, id int, a incAction) {
	c.s.After(d, func() {
		if c.s.Alive(env.NodeID(id)) {
			c.replicas[id].Submit(a, nil)
		}
	})
}

func (c *coreCluster) requireConverged(t *testing.T, wantOps int64) {
	t.Helper()
	for id, m := range c.machines {
		if !c.s.Alive(env.NodeID(id)) {
			continue
		}
		if m.ops != wantOps {
			t.Errorf("node %d applied %d ops, want %d", id, m.ops, wantOps)
		}
	}
	var ref *kvMachine
	for id, m := range c.machines {
		if !c.s.Alive(env.NodeID(id)) {
			continue
		}
		if ref == nil {
			ref = m
			continue
		}
		if len(m.counts) != len(ref.counts) {
			t.Fatalf("node %d state size %d != %d", id, len(m.counts), len(ref.counts))
		}
		for k, v := range ref.counts {
			if m.counts[k] != v {
				t.Fatalf("node %d: counts[%q]=%d, want %d", id, k, m.counts[k], v)
			}
		}
	}
}

func TestReplicatedStateMachineConverges(t *testing.T) {
	c := newCoreCluster(t, 3, 10, nil)
	const total = 90
	for i := 0; i < total; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%7), Delta: 1})
	}
	c.s.RunFor(10 * time.Second)
	c.requireConverged(t, total)
}

func TestSubmitReturnsResult(t *testing.T) {
	c := newCoreCluster(t, 3, 11, nil)
	var got any
	c.s.After(2*time.Second, func() {
		c.replicas[0].Submit(incAction{Key: "x", Delta: 5}, func(result any, err error) {
			if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			got = result
		})
	})
	c.s.RunFor(5 * time.Second)
	if got != int64(5) {
		t.Fatalf("result = %v, want 5", got)
	}
}

func TestCheckpointRecoveryUsesLocalState(t *testing.T) {
	c := newCoreCluster(t, 5, 12, nil)
	const phase1 = 100
	for i := 0; i < phase1; i++ {
		c.submit(2*time.Second+time.Duration(i)*5*time.Millisecond, i%5,
			incAction{Key: "a", Delta: 1})
	}
	// Force a checkpoint on node 4, then crash it.
	c.s.After(5*time.Second, func() { c.replicas[4].Checkpoint(nil) })
	c.s.After(8*time.Second, func() { c.s.Crash(4) })
	const phase2 = 60
	for i := 0; i < phase2; i++ {
		c.submit(9*time.Second+time.Duration(i)*5*time.Millisecond, i%4,
			incAction{Key: "b", Delta: 1})
	}
	c.s.After(15*time.Second, func() { c.s.Restart(4) })
	c.s.RunFor(40 * time.Second)

	c.requireConverged(t, phase1+phase2)
	if c.recovered[4] != 1 {
		t.Fatalf("node 4 OnRecovered fired %d times, want 1", c.recovered[4])
	}
	// The restarted incarnation must have applied only the suffix, not
	// the whole history: the checkpoint covered phase 1.
	if got := c.replicas[4].AppliedCount(); got >= phase1+phase2 {
		t.Errorf("node 4 re-applied full history (%d ops); checkpoint unused", got)
	}
}

// TestRestoreAnnouncedUntilFinished: a replica restarted over a checkpoint
// announces the restore in its heartbeat (paxos Engine.SetRestoring) from the
// engine's boot until finishRestore makes it ready, so the group orders in
// classic rounds while its disk serves the checkpoint read. A fresh replica
// never announces one, nor does one under SequentialRecovery, whose engine
// boots after the restore.
func TestRestoreAnnouncedUntilFinished(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		t.Run(fmt.Sprintf("sequential=%v", sequential), func(t *testing.T) {
			c := newCoreCluster(t, 3, 15, func(id int, cfg *Config) {
				cfg.SequentialRecovery = sequential
			})
			announced := 0 // probes at which node 2 announced a restore
			probe := func(from, to time.Duration) {
				for d := from; d < to; d += time.Millisecond {
					c.s.After(d, func() {
						r := c.replicas[2]
						if !c.s.Alive(2) || r.Engine() == nil {
							return
						}
						want := r.recovering && !r.Ready() && !sequential
						if on := r.Engine().Restoring(); on != want {
							t.Fatalf("at %v: restoring %v, ready %v, recovering %v", c.s.Now(), on, r.Ready(), r.recovering)
						} else if on {
							announced++
						}
					})
				}
			}
			probe(0, 2*time.Second)
			for i := 0; i < 60; i++ {
				c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%3,
					incAction{Key: "a", Delta: 1})
			}
			c.s.After(3*time.Second, func() { c.replicas[2].Checkpoint(nil) })
			c.s.After(4*time.Second, func() { c.s.Crash(2) })
			c.s.After(5*time.Second, func() { c.s.Restart(2) })
			probe(5*time.Second, 8*time.Second)
			c.s.RunFor(10 * time.Second)

			c.requireConverged(t, 60)
			if c.recovered[2] != 1 {
				t.Fatalf("node 2 OnRecovered fired %d times, want 1", c.recovered[2])
			}
			if sequential != (announced == 0) {
				t.Fatalf("node 2 announced a restore at %d probes (sequential %v)", announced, sequential)
			}
		})
	}
}

func TestRemoteSnapshotFallback(t *testing.T) {
	c := newCoreCluster(t, 3, 13, func(id int, cfg *Config) {
		cfg.CheckpointInterval = 3 * time.Second
		cfg.RetainInstances = 1 // compact aggressively
	})
	const phase1 = 50
	for i := 0; i < phase1; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%3,
			incAction{Key: "a", Delta: 1})
	}
	c.s.After(4*time.Second, func() { c.s.Crash(2) })
	const phase2 = 80
	for i := 0; i < phase2; i++ {
		c.submit(5*time.Second+time.Duration(i)*20*time.Millisecond, i%2,
			incAction{Key: "b", Delta: 1})
	}
	// Let the survivors checkpoint and compact well past node 2's
	// horizon, then bring it back: the log suffix is gone, so it must
	// fetch a remote checkpoint.
	c.s.After(25*time.Second, func() { c.s.Restart(2) })
	c.s.RunFor(60 * time.Second)
	c.requireConverged(t, phase1+phase2)
}

// TestRemoteSnapshotSettlesOwnValues: node 2 submits five values, one per
// in-flight slot, and is cut off before it learns they were chosen; the
// others checkpoint and compact past them. Healed, node 2 installs a
// checkpoint that applied its values, and must settle them: their
// completions fire with ErrAppliedUnknown, the engine stops retrying them and
// frees their slots, so three values submitted afterwards are applied and
// complete. Before the fix none of the eight completions fired, the five were
// retried for ever, and the three were never proposed.
func TestRemoteSnapshotSettlesOwnValues(t *testing.T) {
	const slots = 5
	c := newCoreCluster(t, 3, 13, func(id int, cfg *Config) {
		cfg.CheckpointInterval = 3 * time.Second
		cfg.RetainInstances = 1
		cfg.Paxos.MaxBatchCmds = 1 // a value per command
		cfg.Paxos.MaxInFlight = slots
	})
	for i := 0; i < 50; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%3, incAction{Key: "a", Delta: 1})
	}
	const others = 400
	for i := 0; i < others; i++ {
		c.submit(5*time.Second+time.Duration(i)*20*time.Millisecond, i%2, incAction{Key: "b", Delta: 1})
	}
	var absorbed, after []error
	submit := func(errs *[]error) {
		c.replicas[2].Submit(incAction{Key: "c", Delta: 1}, func(_ any, err error) { *errs = append(*errs, err) })
	}
	// Node 2's values leave before it stops hearing, and it stops sending a
	// moment later, so its elections cannot unseat the leader meanwhile.
	victim := []env.NodeID{2}
	var deaf, cut *netfault.Handle
	c.s.After(5*time.Second, func() {
		if c.replicas[2].Engine().IsLeader() {
			t.Fatal("node 2 leads: the scenario needs it to follow")
		}
		deaf = c.s.Links().Open(netfault.Fault{Nodes: victim, Dir: env.LinkInboundOnly, Sever: true})
		for range slots {
			submit(&absorbed)
		}
	})
	c.s.After(5*time.Second+100*time.Millisecond, func() {
		cut = c.s.Links().Open(netfault.Fault{Nodes: victim, Sever: true})
	})
	c.s.After(15*time.Second, func() { deaf.Heal(); cut.Heal() })
	var retries int64
	c.s.After(20*time.Second, func() {
		for range 3 {
			submit(&after)
		}
		retries = c.replicas[2].Engine().Stats().Retries
	})
	c.s.RunFor(40 * time.Second)

	if len(absorbed) != slots {
		t.Fatalf("%d of the %d values the checkpoint applied completed", len(absorbed), slots)
	}
	for _, err := range absorbed {
		if !errors.Is(err, ErrAppliedUnknown) {
			t.Errorf("a value the checkpoint applied completed with %v, want ErrAppliedUnknown", err)
		}
	}
	if len(after) != 3 {
		t.Fatalf("%d of the 3 later values completed", len(after))
	}
	for _, err := range after {
		if err != nil {
			t.Errorf("a later value completed with %v", err)
		}
	}
	if got := c.replicas[2].Engine().Stats().Retries; got != retries {
		t.Errorf("node 2 retried %d values after the checkpoint settled them", got-retries)
	}
	if p := &c.replicas[2].pending; p.Base() != p.End() {
		t.Errorf("node 2's pending completions span [%d, %d) with nothing waiting", p.Base(), p.End())
	}
	c.requireConverged(t, 50+others+slots+3)
}

func TestSubmitBeforeReadyFails(t *testing.T) {
	c := newCoreCluster(t, 3, 14, nil)
	var err error
	fired := false
	// At t=0 the replicas have not finished recovery I/O yet.
	c.s.At(c.s.Now(), func() {
		c.replicas[0].Submit(incAction{Key: "x", Delta: 1}, func(_ any, e error) {
			fired = true
			err = e
		})
	})
	c.s.RunFor(100 * time.Millisecond)
	if !fired {
		t.Fatal("callback did not fire")
	}
	if err == nil {
		t.Fatal("expected ErrNotReady, got nil")
	}
}

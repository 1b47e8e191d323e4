package core

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/paxos"
	"robuststore/internal/sim"
)

// TestCheckpointSkippedWhileRecovering: a checkpoint triggered while the
// application state is still loading must be a harmless no-op.
func TestCheckpointSkippedWhileRecovering(t *testing.T) {
	c := newCoreCluster(t, 3, 32, nil)
	for i := 0; i < 30; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%3,
			incAction{Key: "a", Delta: 1})
	}
	c.s.After(4*time.Second, func() { c.replicas[0].Checkpoint(nil) })
	c.s.After(8*time.Second, func() { c.s.Crash(0) })
	c.s.After(9*time.Second, func() { c.s.Restart(0) })
	// Immediately after restart the app snapshot is still streaming;
	// Checkpoint must not corrupt anything.
	done := false
	c.s.After(9100*time.Millisecond, func() {
		c.replicas[0].Checkpoint(func() { done = true })
	})
	c.s.RunFor(40 * time.Second)
	if !done {
		t.Fatal("checkpoint during recovery never completed its callback")
	}
	c.requireConverged(t, 30)
}

// TestSubmitResultAfterRecoveryUsesFreshEpoch: a recovered replica's new
// submissions must execute exactly once (the incarnation-epoch regression:
// without epochs, a restarted proposer's value ids collide with its
// previous life's and get deduplicated away).
func TestSubmitResultAfterRecoveryUsesFreshEpoch(t *testing.T) {
	c := newCoreCluster(t, 3, 33, nil)
	for i := 0; i < 20; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, 2,
			incAction{Key: "pre", Delta: 1})
	}
	c.s.After(4*time.Second, func() { c.s.Crash(2) })
	c.s.After(6*time.Second, func() { c.s.Restart(2) })
	c.s.RunFor(20 * time.Second)

	// New submissions at the recovered node must apply and return.
	got := 0
	for i := 0; i < 10; i++ {
		c.s.After(time.Duration(i)*50*time.Millisecond, func() {
			c.replicas[2].Submit(incAction{Key: "post", Delta: 1},
				func(any, error) { got++ })
		})
	}
	c.s.RunFor(15 * time.Second)
	if got != 10 {
		t.Fatalf("only %d/10 post-recovery submissions completed", got)
	}
	c.requireConverged(t, 30)
}

// TestReplayDoesNotResolveNewSubmissions: pending sequence numbers
// restart at zero with every incarnation, so a command replayed from the
// previous life of this node (same origin, same low seq) must not resolve
// a submission made by the current one — without the command epoch, a
// post-crash replay hands the caller the result of a different, older
// action (observed as a CartResult arriving for a BuyConfirm in the live
// bookstore).
func TestReplayDoesNotResolveNewSubmissions(t *testing.T) {
	// A single-member group replays its own WAL on restart — the exact
	// shape of the degenerate Servers=1 deployments the sharded
	// faultloads sweep, and the widest replay window.
	c := newCoreCluster(t, 1, 17, nil)
	// Seed the log with node 0's own commands: seqs 1..20 on key "a".
	for i := 0; i < 20; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, 0,
			incAction{Key: "a", Delta: 1})
	}
	c.s.After(4*time.Second, func() { c.s.Crash(0) })
	c.s.After(6*time.Second, func() { c.s.Restart(0) })

	// Submit from the fresh incarnation as soon as it accepts work — its
	// seq 1 races the replay of old seq 1 (result would be "a"'s counter,
	// 1, instead of "b"'s, 5).
	var result any
	fired := 0
	var trySubmit func()
	trySubmit = func() {
		if r := c.replicas[0]; c.s.Alive(0) && r.Ready() {
			r.Submit(incAction{Key: "b", Delta: 5}, func(res any, err error) {
				if err == nil {
					result = res
					fired++
				}
			})
			return
		}
		c.s.After(5*time.Millisecond, trySubmit)
	}
	c.s.After(6*time.Second+time.Millisecond, trySubmit)

	c.s.RunFor(30 * time.Second)
	if fired != 1 {
		t.Fatalf("post-restart submission completed %d times, want 1", fired)
	}
	if got, ok := result.(int64); !ok || got != 5 {
		t.Fatalf("post-restart submission got result %v, want 5 (its own action's result)", result)
	}
	c.requireConverged(t, 21)
}

// TestQueueMembersOption: a cluster with a non-member bystander node must
// compute quorums over the members only.
func TestQueueMembersOption(t *testing.T) {
	members := []env.NodeID{0, 1, 2}
	c := &coreCluster{
		replicas:  make([]*Replica, 3),
		machines:  make([]*kvMachine, 3),
		recovered: make([]int, 3),
	}
	c.s = sim.New(sim.Config{Seed: 13})
	for i := 0; i < 3; i++ {
		id := i
		c.s.AddNode(func() env.Node {
			r := NewReplica(Config{
				Machine: func() StateMachine {
					m := newKVMachine()
					c.machines[id] = m
					return m
				},
				Paxos: paxos.Config{Members: members, BatchDelay: 2 * time.Millisecond},
			})
			c.replicas[id] = r
			return r
		})
	}
	// A bystander that never participates (like the web tier's proxy).
	c.s.AddNode(func() env.Node { return bystander{} })
	c.s.StartAll()

	c.submit(2*time.Second, 0, incAction{Key: "x", Delta: 1})
	// One member down: 2 of 3 members is still a majority even though
	// only 2 of 4 runtime nodes are consensus participants.
	c.s.After(3*time.Second, func() { c.s.Crash(1) })
	c.submit(4*time.Second, 0, incAction{Key: "x", Delta: 1})
	c.s.RunFor(10 * time.Second)
	if c.machines[0].ops != 2 {
		t.Fatalf("applied %d ops; members-scoped quorum broken", c.machines[0].ops)
	}
}

type bystander struct{}

func (bystander) Start(env.Env)                   {}
func (bystander) Receive(env.NodeID, env.Message) {}

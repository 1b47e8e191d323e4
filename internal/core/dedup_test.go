package core

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/paxos"
)

// TestDuplicateAcrossCheckpointAppliedOnce: a value applied out of order —
// above a gap in its proposer's sequence — before a checkpoint, and chosen
// again at an instance after it, is applied once by a replica that restarts
// from that checkpoint. Lossy links and an eager retry sweep get values
// decided at two instances (as in TestRetriedValuesCompleteOnce); one
// replica checkpoints while they are on the wire, and restarts from it once
// the group has converged. A control run from the same seed strips the
// out-of-order sequences from the stored checkpoint, keeping only each
// proposer's contiguous prefix, and must apply a value twice: that is what
// shows the schedule still builds a duplicate across the checkpoint.
func TestDuplicateAcrossCheckpointAppliedOnce(t *testing.T) {
	const total, victim = 300, 2
	run := func(strip bool) (ops []int64, over int) {
		c := newCoreCluster(t, 3, 42, func(id int, cfg *Config) {
			cfg.CheckpointInterval = time.Hour
			cfg.Paxos.MaxBatchCmds = 1
			cfg.Paxos.MaxInFlight = 32
			cfg.Paxos.RetryTimeout = 10 * time.Millisecond
			cfg.Paxos.SweepInterval = 2 * time.Millisecond
		})
		c.s.RunFor(2 * time.Second)
		var lossy []*netfault.Handle
		for id := range env.NodeID(3) {
			lossy = append(lossy, c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{id}, Dir: env.LinkOutboundOnly, Loss: 0.2}))
		}
		for i := 0; i < total; i++ {
			c.submit(time.Duration(i)*500*time.Microsecond, i%3, incAction{Key: string(rune('a' + i%26)), Delta: 1})
		}
		r := c.replicas[victim]
		st := c.s.Storage(victim)
		c.s.After(75*time.Millisecond, func() {
			r.Checkpoint(func() {
				name := r.baseName
				st.LoadSnapshot(name, func(snap env.Snapshot, ok bool) {
					layer, good := snap.Data.(appSnap)
					if !ok || !good {
						t.Errorf("checkpoint layer %q unreadable", name)
						return
					}
					for _, byEpoch := range layer.Delivered {
						for _, d := range byEpoch {
							over += len(d.Over)
						}
					}
					if strip {
						prefix := paxos.DeliveredState{}
						for node, byEpoch := range layer.Delivered {
							prefix[node] = map[int64]paxos.Delivered{}
							for epoch, d := range byEpoch {
								prefix[node][epoch] = paxos.Delivered{Base: d.Base}
							}
						}
						layer.Delivered = prefix
						st.SaveSnapshot(name, env.Snapshot{Data: layer, Size: snap.Size}, nil)
					}
				})
			})
		})
		c.s.RunFor(5 * time.Second)
		for _, h := range lossy {
			h.Heal()
		}
		c.s.RunFor(5 * time.Second)
		c.s.Crash(victim)
		c.s.RunFor(100 * time.Millisecond)
		c.s.Restart(victim)
		c.s.RunFor(10 * time.Second)
		if !c.replicas[victim].Ready() {
			t.Fatal("the restarted replica never restored its checkpoint")
		}
		for _, m := range c.machines {
			ops = append(ops, m.ops)
		}
		return ops, over
	}

	ops, over := run(false)
	if over == 0 {
		t.Fatal("the checkpoint holds no value applied out of order; the schedule no longer builds the case")
	}
	for id, n := range ops {
		if n != total {
			t.Errorf("node %d applied %d actions, want %d (the checkpoint held %d out-of-order values)", id, n, total, over)
		}
	}
	control, _ := run(true)
	if control[victim] <= total {
		t.Fatalf("restarted from the prefix alone, node %d applied %d actions; a value chosen again after the checkpoint should have been applied twice", victim, control[victim])
	}
	t.Logf("%d out-of-order values in the checkpoint; from the prefix alone the restarted replica applies %d actions of %d", over, control[victim], total)
}

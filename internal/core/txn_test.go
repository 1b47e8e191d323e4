package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
)

// stagerMachine wraps kvMachine with the TxnStager capability: branches
// touching rejectKey draw a no-vote.
type stagerMachine struct {
	*kvMachine
	rejectKey string
}

func (m *stagerMachine) StageTxn(action any) string {
	a, ok := action.(incAction)
	if !ok {
		return "unknown action"
	}
	if a.Key == m.rejectKey {
		return "key rejected"
	}
	return ""
}

// recordStaged makes every replica of the cluster list what OnTxnStaged
// reports, as "id@home", in staged[node].
func recordStaged(staged *[3][]string) func(id int, cfg *Config) {
	return func(node int, cfg *Config) {
		cfg.OnTxnStaged = func(id string, home int) {
			staged[node] = append(staged[node], fmt.Sprintf("%s@%d", id, home))
		}
	}
}

// submitTxn submits a txn meta-action at d and returns a pointer that
// holds the execution result once applied.
func (c *coreCluster) submitTxn(d time.Duration, id int, action any) *any {
	var got any
	c.s.After(d, func() {
		if c.s.Alive(env.NodeID(id)) {
			c.replicas[id].Submit(action, func(result any, err error) {
				if err == nil {
					got = result
				}
			})
		}
	})
	return &got
}

func TestTxnPrepareCommitIdempotent(t *testing.T) {
	var staged [3][]string
	c := newCoreCluster(t, 3, 41, recordStaged(&staged))
	prep := TxnPrepare{ID: "t1", Home: 0, Action: incAction{Key: "x", Delta: 5}, Keys: []string{"x/1"}}

	vote := c.submitTxn(2*time.Second, 0, prep)
	c.s.RunFor(4 * time.Second)
	if v, ok := (*vote).(TxnVoteResult); !ok || !v.Prepared {
		t.Fatalf("prepare vote = %#v, want Prepared", *vote)
	}
	// Prepared but not applied: the branch is staged, its key blocked, on
	// every replica.
	for id, m := range c.machines {
		if m.counts["x"] != 0 {
			t.Fatalf("node %d applied staged branch early: x=%d", id, m.counts["x"])
		}
		if !c.replicas[id].TxnBlocksInt("x/", 1) {
			t.Fatalf("node %d does not block prepared key", id)
		}
		if c.replicas[id].TxnBlocksInt("y/", 1) || c.replicas[id].TxnBlocksInt("x/", 10) || c.replicas[id].TxnBlocksInt("x", 1) {
			t.Fatalf("node %d blocks unrelated key", id)
		}
		if !c.replicas[id].TxnPrepared("t1") || !c.replicas[id].HasPreparedTxns() {
			t.Fatalf("node %d does not hold the prepared branch", id)
		}
	}

	// A duplicate prepare re-votes yes without re-staging.
	revote := c.submitTxn(time.Millisecond, 1, prep)
	c.s.RunFor(4 * time.Second)
	if v, ok := (*revote).(TxnVoteResult); !ok || !v.Prepared {
		t.Fatalf("duplicate prepare vote = %#v, want Prepared", *revote)
	}
	// Every replica reported the branch once, with its home group: the
	// duplicate staged nothing.
	for id, got := range staged {
		if !slices.Equal(got, []string{"t1@0"}) {
			t.Fatalf("node %d OnTxnStaged reported %q, want [t1@0]", id, got)
		}
	}

	// Commit executes the staged branch exactly once.
	first := c.submitTxn(time.Millisecond, 0, TxnOutcome{ID: "t1", Commit: true})
	retry := c.submitTxn(time.Second, 1, TxnOutcome{ID: "t1", Commit: true})
	c.s.RunFor(5 * time.Second)
	if r, ok := (*first).(TxnAppliedResult); !ok || !r.First {
		t.Fatalf("first commit = %#v, want First", *first)
	}
	if r, ok := (*retry).(TxnAppliedResult); !ok || r.First {
		t.Fatalf("retried commit = %#v, want ordered no-op", *retry)
	}
	for id, m := range c.machines {
		if m.counts["x"] != 5 || m.ops != 1 {
			t.Fatalf("node %d x=%d ops=%d, want 5/1", id, m.counts["x"], m.ops)
		}
		if c.replicas[id].TxnBlocksInt("x/", 1) {
			t.Fatalf("node %d still blocks resolved key", id)
		}
	}

	// A stale duplicate prepare after the outcome must not re-stage.
	late := c.submitTxn(time.Millisecond, 2, prep)
	c.s.RunFor(4 * time.Second)
	if v, ok := (*late).(TxnVoteResult); !ok || v.Prepared || v.Reason == "" {
		t.Fatalf("late prepare = %#v, want rejected with reason", *late)
	}
	c.requireConverged(t, 1)
}

func TestTxnAbortDiscardsStagedBranch(t *testing.T) {
	c := newCoreCluster(t, 3, 42, nil)
	c.submitTxn(2*time.Second, 0, TxnPrepare{ID: "t2", Home: 1, Action: incAction{Key: "a", Delta: 9}, Keys: []string{"a/1"}})
	abort := c.submitTxn(4*time.Second, 0, TxnOutcome{ID: "t2"})
	c.s.RunFor(8 * time.Second)
	if r, ok := (*abort).(TxnAppliedResult); !ok || !r.First {
		t.Fatalf("abort = %#v, want First", *abort)
	}
	for id, m := range c.machines {
		if m.counts["a"] != 0 || m.ops != 0 {
			t.Fatalf("node %d applied aborted branch: a=%d", id, m.counts["a"])
		}
		if c.replicas[id].TxnBlocksInt("a/", 1) {
			t.Fatalf("node %d still blocks aborted key", id)
		}
	}
}

func TestTxnNoVoteStagesNothing(t *testing.T) {
	c := newCoreCluster(t, 3, 43, func(id int, cfg *Config) {
		inner := cfg.Machine
		cfg.Machine = func() StateMachine {
			return &stagerMachine{kvMachine: inner().(*kvMachine), rejectKey: "bad"}
		}
	})
	vote := c.submitTxn(2*time.Second, 0, TxnPrepare{ID: "t3", Home: 0, Action: incAction{Key: "bad", Delta: 1}, Keys: []string{"bad/1"}})
	abort := c.submitTxn(4*time.Second, 0, TxnOutcome{ID: "t3"})
	c.s.RunFor(8 * time.Second)
	if v, ok := (*vote).(TxnVoteResult); !ok || v.Prepared || v.Reason != "key rejected" {
		t.Fatalf("vote = %#v, want no-vote 'key rejected'", *vote)
	}
	for id := range c.replicas {
		if c.replicas[id].TxnBlocksInt("bad/", 1) {
			t.Fatalf("node %d blocks key of a no-vote branch", id)
		}
	}
	// The abort that resolves a no-vote transaction is still First (the
	// record that made it terminal) but applies nothing.
	if r, ok := (*abort).(TxnAppliedResult); !ok || !r.First {
		t.Fatalf("abort = %#v, want First", *abort)
	}
	for id, m := range c.machines {
		if m.ops != 0 {
			t.Fatalf("node %d applied %d ops, want none", id, m.ops)
		}
	}
}

func TestTxnDecisionFirstWriterWins(t *testing.T) {
	c := newCoreCluster(t, 3, 44, nil)
	commit := c.submitTxn(2*time.Second, 0, TxnDecision{ID: "t4", Commit: true})
	racer := c.submitTxn(4*time.Second, 1, TxnDecision{ID: "t4", Commit: false})
	c.s.RunFor(8 * time.Second)
	if d, ok := (*commit).(TxnDecisionResult); !ok || !d.First || !d.Commit {
		t.Fatalf("first decision = %#v, want First+Commit", *commit)
	}
	// The racing presumed-abort reads back the recorded commit.
	if d, ok := (*racer).(TxnDecisionResult); !ok || d.First || !d.Commit {
		t.Fatalf("racing decision = %#v, want recorded Commit, not First", *racer)
	}
	for id := range c.replicas {
		commit, known := c.replicas[id].TxnDecided("t4")
		if !known || !commit {
			t.Fatalf("node %d TxnDecided = %v,%v, want commit recorded", id, commit, known)
		}
	}
}

// TestTxnStateSurvivesCheckpointRecovery crashes a replica holding a
// prepared branch after it checkpointed, resolves the transaction while
// it is down, and requires the restarted incarnation to apply the commit
// exactly once from checkpoint + replayed log suffix.
func TestTxnStateSurvivesCheckpointRecovery(t *testing.T) {
	c := newCoreCluster(t, 3, 45, nil)
	c.submitTxn(2*time.Second, 0, TxnPrepare{ID: "t5", Home: 0, Action: incAction{Key: "x", Delta: 7}, Keys: []string{"x/1"}})
	c.s.After(4*time.Second, func() { c.replicas[2].Checkpoint(nil) })
	c.s.After(6*time.Second, func() { c.s.Crash(2) })
	c.submitTxn(8*time.Second, 0, TxnOutcome{ID: "t5", Commit: true})
	c.s.After(12*time.Second, func() { c.s.Restart(2) })
	c.s.RunFor(40 * time.Second)
	c.requireConverged(t, 1)
	for id, m := range c.machines {
		if m.counts["x"] != 7 {
			t.Fatalf("node %d x=%d, want 7 (exactly-once commit across recovery)", id, m.counts["x"])
		}
		if c.replicas[id].TxnBlocksInt("x/", 1) {
			t.Fatalf("node %d still blocks resolved key after recovery", id)
		}
	}
}

// TestRemoteCheckpointReportsStagedBranch: node 2 never crashes, but is cut
// off while a branch is staged; the others checkpoint and compact past the
// prepare. Healed, node 2 installs a checkpoint from a peer that holds the
// branch, and must report it through OnTxnStaged: the deployment tier arms
// the branch's resolution loop there and nowhere else, and node 2 applied
// no prepare that would have fired it.
func TestRemoteCheckpointReportsStagedBranch(t *testing.T) {
	var staged [3][]string
	tweak := recordStaged(&staged)
	c := newCoreCluster(t, 3, 46, func(id int, cfg *Config) {
		cfg.CheckpointInterval = 3 * time.Second
		cfg.RetainInstances = 1
		tweak(id, cfg)
	})
	var cut *netfault.Handle
	c.s.After(time.Second, func() {
		if c.replicas[2].IsLeader() {
			t.Fatal("node 2 leads: the scenario needs it to follow")
		}
		cut = c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{2}, Sever: true})
	})
	c.submitTxn(2*time.Second, 0, TxnPrepare{ID: "t6", Home: 1, Action: incAction{Key: "x", Delta: 3}, Keys: []string{"x/1"}})
	const others = 100
	for i := 0; i < others; i++ {
		c.submit(3*time.Second+time.Duration(i)*50*time.Millisecond, i%2, incAction{Key: "y", Delta: 1})
	}
	c.s.After(15*time.Second, func() { cut.Heal() })
	c.s.RunFor(30 * time.Second)

	if c.replicas[2].remoteBaseID == 0 {
		t.Fatal("node 2 caught up without installing a peer's checkpoint")
	}
	if !c.replicas[2].TxnPrepared("t6") {
		t.Fatal("the installed checkpoint does not hold the staged branch")
	}
	for id, got := range staged {
		if !slices.Contains(got, "t6@1") {
			t.Errorf("node %d OnTxnStaged reported %q, want t6@1 among them", id, got)
		}
	}
	c.requireConverged(t, others)
}

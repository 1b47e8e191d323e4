package core_test

import (
	"context"
	"fmt"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/livenet"
	"robuststore/internal/paxos"
)

// counter is the application: a black box with deterministic transitions
// (core.StateMachine).
type counter struct{ total int64 }

func (m *counter) Execute(action any) any {
	if d, ok := action.(int64); ok {
		m.total += d
	}
	return m.total
}

func (m *counter) Snapshot() (any, int64) { return m.total, 64 }

func (m *counter) Restore(data any) {
	if v, ok := data.(int64); ok {
		m.total = v
	}
}

// total reads r's counter on r's executor. It reports false while r is down
// or when the read does not come back within a second.
func total(r *core.Replica) (int64, bool) {
	ch := make(chan int64, 1)
	if !r.Inspect(func(sm core.StateMachine) { ch <- sm.(*counter).total }) {
		return 0, false
	}
	select {
	case v := <-ch:
		return v, true
	case <-time.After(time.Second):
		return 0, false
	}
}

// await polls cond every 10 ms until it holds or d has passed.
func await(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// Example is the smallest end-to-end program: a replicated counter on three
// live replicas. Actions submitted at any replica execute in the same total
// order on all of them (paper §2). A crashed replica, restarted, recovers its
// state from its checkpoint and the log suffix the others decided while it
// was down; the application only implements Snapshot and Restore.
func Example() {
	const replicas = 3
	cluster := livenet.New(livenet.Config{Latency: 200 * time.Microsecond})
	defer cluster.Close()

	// The factory runs once per incarnation, on the goroutine that starts
	// or restarts the node.
	reps := make([]*core.Replica, replicas)
	for i := range reps {
		cluster.AddNode(func() env.Node {
			reps[i] = core.NewReplica(core.Config{
				Machine:            func() core.StateMachine { return &counter{} },
				CheckpointInterval: time.Second,
				Paxos: paxos.Config{
					HeartbeatInterval: 20 * time.Millisecond,
					LeaderTimeout:     150 * time.Millisecond,
					SweepInterval:     10 * time.Millisecond,
					BatchDelay:        time.Millisecond,
				},
			})
			return reps[i]
		})
	}
	cluster.StartAll()
	if !await(5*time.Second, func() bool { return reps[0].Ready() && reps[0].HasLeader() }) {
		fmt.Println("no leader")
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := int64(1); i <= 5; i++ {
		result, err := reps[i%replicas].Execute(ctx, i*10)
		if err != nil {
			fmt.Println("execute:", err)
			return
		}
		fmt.Printf("add %3d -> counter = %v\n", i*10, result)
	}

	// The majority keeps the service running while replica 2 is down.
	cluster.Crash(2)
	if _, err := reps[0].Execute(ctx, int64(1000)); err != nil {
		fmt.Println("execute during outage:", err)
		return
	}
	fmt.Println("added 1000 while replica 2 was down")

	cluster.Restart(2)
	want, _ := total(reps[0])
	converged := await(10*time.Second, func() bool {
		for _, r := range reps {
			if v, ok := total(r); !ok || v != want || !r.Ready() || !r.Recovered() {
				return false
			}
		}
		return true
	})
	for i, r := range reps {
		v, _ := total(r)
		fmt.Printf("replica %d sees counter = %d\n", i, v)
	}
	fmt.Println("converged:", converged)

	// Output:
	// add  10 -> counter = 10
	// add  20 -> counter = 30
	// add  30 -> counter = 60
	// add  40 -> counter = 100
	// add  50 -> counter = 150
	// added 1000 while replica 2 was down
	// replica 0 sees counter = 1150
	// replica 1 sees counter = 1150
	// replica 2 sees counter = 1150
	// converged: true
}

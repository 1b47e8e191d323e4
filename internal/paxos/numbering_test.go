package paxos

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/sim"
)

// The command-numbering contract (see Value): Submit numbers an engine's
// commands 1, 2, 3, … per incarnation, and Cmds[i] of a delivered value is
// command First+i of incarnation (ID.Node, ID.Epoch). The layer above
// resolves its pending submissions by nothing else.

// TestCommandNumbering checks the contract on every delivered value, on
// every node, across partial batches, a deep backlog and a proposer's
// crash and restart (numbers start over under a fresh epoch).
func TestCommandNumbering(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		testTune = func(cfg *Config) {
			cfg.MaxBatchCmds = 4
			cfg.MaxInFlight = 2
		}
		defer func() { testTune = nil }()
		c := newCluster(t, modeSize(fast), fast, 21, sim.NetConfig{})

		type key struct {
			node  env.NodeID
			epoch int64
			num   int64
		}
		submitted := map[key]string{} // what Submit said each command's number is
		c.onDeliver = func(node int, _ InstanceID, v *Value) {
			if v.NoOp() || len(v.Cmds) == 0 || v.First < 1 {
				t.Errorf("node %d delivered a value without commands: %+v", node, v)
			}
			for i, cmd := range v.Cmds {
				k := key{v.ID.Node, v.ID.Epoch, v.First + int64(i)}
				if want, ok := submitted[k]; !ok || want != cmd {
					t.Errorf("node %d: value %v First=%d position %d holds %v, Submit numbered that %q",
						node, v.ID, v.First, i, cmd, want)
				}
			}
		}
		total := 0
		burst := func(at time.Duration, id, n int, wantFirst int64) {
			c.s.After(at, func() {
				en := c.engines[id]
				for i := 0; i < n; i++ {
					cmd := fmt.Sprintf("n%d-%v-%d", id, at, i)
					num := en.Submit(cmd)
					if i == 0 && num != wantFirst {
						t.Errorf("node %d at %v: first number %d, want %d", id, at, num, wantFirst)
					}
					k := key{env.NodeID(id), en.Epoch(), num}
					if _, dup := submitted[k]; dup {
						t.Errorf("number %d handed out twice in one incarnation", num)
					}
					submitted[k] = cmd
				}
			})
			total += n
		}
		burst(2*time.Second, 1, 3, 1)                // a partial batch
		burst(2*time.Second+time.Second/2, 1, 50, 4) // a backlog far past the window
		burst(2*time.Second, 2, 9, 1)                // a second proposer, same numbers
		c.s.After(4*time.Second, func() { c.s.Crash(1) })
		c.s.After(5*time.Second, func() { c.s.Restart(1) })
		burst(8*time.Second, 1, 6, 1) // the new incarnation starts over at 1
		c.s.RunFor(15 * time.Second)

		for id := 0; id < c.n; id++ {
			// Node 1's delivery log restarts with its incarnation; it
			// re-learns the whole log from instance 0.
			c.requireDelivered(id, total)
		}
		c.checkConsistency()
	})
}

// TestValueChosenTwiceDeliversOnce: with lossy links and a retry timeout of
// a few round trips, the retry sweep re-proposes values that are decided
// but stuck behind a gap, and the leader gives them a second instance. The
// duplicate must be filtered before Deliver. (The timeout stays above the
// 4 ms disk sync: below it per-instance recovery can never collect its
// replies.)
func TestValueChosenTwiceDeliversOnce(t *testing.T) {
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = 2
		cfg.MaxInFlight = 32
		cfg.RetryTimeout = 10 * time.Millisecond
		cfg.SweepInterval = 2 * time.Millisecond
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 22, sim.NetConfig{})
	c.s.RunFor(2 * time.Second)
	// Every link between two nodes loses a fifth of its messages; each
	// loopback delivers.
	var lossy []*netfault.Handle
	for id := range env.NodeID(3) {
		lossy = append(lossy, c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{id}, Dir: env.LinkOutboundOnly, Loss: 0.2}))
	}
	const total = 300
	for i := 0; i < total; i++ {
		c.submit(time.Duration(i)*500*time.Microsecond, i%3, fmt.Sprintf("cmd-%03d", i))
	}
	c.s.RunFor(5 * time.Second)
	for _, h := range lossy {
		h.Heal()
	}
	c.s.RunFor(5 * time.Second)

	for id := 0; id < 3; id++ {
		c.requireDelivered(id, total)
	}
	c.checkConsistency() // includes: no command applied twice
	// The run must have produced what it is about.
	twice, decided := 0, 0
	at := map[ValueID]InstanceID{}
	en := c.engines[0]
	for inst := en.log.Base(); inst < en.log.End(); inst++ {
		v, ok := en.chosenAt(inst)
		if !ok {
			continue
		}
		decided++
		if v.NoOp() {
			continue
		}
		if _, dup := at[v.ID]; dup {
			twice++
		}
		at[v.ID] = inst
	}
	if twice == 0 {
		t.Fatal("no value was chosen at two instances; the scenario no longer exercises the dedup")
	}
	t.Logf("%d values chosen twice, %d instances for %d distinct values", twice, decided, len(at))
}

// TestValueSize: a Value is carved once, from its proposer's value slab, and
// every message, vote, log slot and delivery holds it by pointer, so it costs
// its 64 bytes once per value; the records that carry it are small. (While a
// Value was copied into every message, WAL record and map entry, a vote was
// 88 B, an announcement 72 B and a pending value 88 B.)
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 64 {
		t.Fatalf("Value is %d bytes, want 64", got)
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"acceptedMsg", unsafe.Sizeof(acceptedMsg{}), 32},
		{"chosenMsg", unsafe.Sizeof(chosenMsg{}), 16},
		{"pendingValue", unsafe.Sizeof(pendingValue{}), 32},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d: it holds its Value by pointer", c.name, c.size, c.max)
		}
	}
	en := New(Config{Deliver: func(InstanceID, *Value) {}})
	if !en.noOp(1).NoOp() || (Value{ID: ValueID{Seq: 1}}).NoOp() {
		t.Fatal("NoOp must hold for exactly the values noOp builds")
	}
}

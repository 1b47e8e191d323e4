package netfault

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"robuststore/internal/env"
)

// world is one table plus the partition handles a scenario has opened.
type world struct {
	tb *Table
	h  map[string]*BlockHandle
}

// step runs one operation and then states the table's whole condition:
// exactly these directed links ("from>to") are blocked, and exactly these
// carry a degradation ("from>to loss=… delay=…").
type step struct {
	what     string
	do       func(w *world)
	blocked  []string
	degraded []string
}

func (w *world) state(peers int) (blocked, degraded []string) {
	for a := 0; a < peers; a++ {
		for b := 0; b < peers; b++ {
			l := w.tb.Link(env.NodeID(a), env.NodeID(b))
			if l.Blocked() {
				blocked = append(blocked, fmt.Sprintf("%d>%d", a, b))
			}
			if l.Loss != 0 || l.Delay != 0 {
				degraded = append(degraded, fmt.Sprintf("%d>%d loss=%g delay=%g", a, b, l.Loss, l.Delay))
			}
		}
	}
	return blocked, degraded
}

// TestTable is the one home of the link-fault table's behaviours; each
// runtime keeps a single test that its sends consult the table.
func TestTable(t *testing.T) {
	cases := []struct {
		name  string
		peers int
		steps []step
	}{
		{"SetLink is directed", 2, []step{
			{"block 0>1", func(w *world) { w.tb.SetLink(0, 1, true) }, []string{"0>1"}, nil},
			{"unblock 0>1", func(w *world) { w.tb.SetLink(0, 1, false) }, nil, nil},
		}},
		{"handles compose", 3, []step{
			{"isolate 1", func(w *world) { w.h["a"] = w.tb.Partition(1) },
				[]string{"0>1", "1>0", "1>2", "2>1"}, nil},
			{"isolate 2 on top", func(w *world) { w.h["b"] = w.tb.Partition(2) },
				[]string{"0>1", "0>2", "1>0", "1>2", "2>0", "2>1"}, nil},
			{"healing the first leaves the second", func(w *world) { w.h["a"].Heal() },
				[]string{"0>2", "1>2", "2>0", "2>1"}, nil},
			{"healing twice is a no-op", func(w *world) { w.h["a"].Heal() },
				[]string{"0>2", "1>2", "2>0", "2>1"}, nil},
			{"healing the second opens everything", func(w *world) { w.h["b"].Heal() }, nil, nil},
		}},
		{"a handle heal keeps a SetLink block", 2, []step{
			{"toggle, partition over it, heal the partition", func(w *world) {
				w.tb.SetLink(0, 1, true)
				w.tb.Partition(1).Heal()
			}, []string{"0>1"}, nil},
		}},
		{"one-way loss", 2, []step{
			{"outbound: the victim hears but cannot answer",
				func(w *world) { w.h["o"] = w.tb.PartitionDir(env.LinkOutboundOnly, 1) }, []string{"1>0"}, nil},
			{"inbound: the victim speaks but hears nothing", func(w *world) {
				w.h["o"].Heal()
				w.tb.PartitionDir(env.LinkInboundOnly, 1)
			}, []string{"0>1"}, nil},
		}},
		{"a late peer joins the majority side", 3, []step{
			{"isolate 1 while peer 2 is unknown", func(w *world) {
				w.tb = New(LoopConfined{})
				w.tb.AddPeer(0)
				w.tb.AddPeer(1)
				w.h["p"] = w.tb.Partition(1)
			}, []string{"0>1", "1>0"}, nil},
			{"peer 2 arrives", func(w *world) { w.tb.AddPeer(2) },
				[]string{"0>1", "1>0", "1>2", "2>1"}, nil},
			{"the heal covers the late blocks", func(w *world) { w.h["p"].Heal() }, nil, nil},
			{"a healed partition no longer extends", func(w *world) { w.tb.AddPeer(2) }, nil, nil},
		}},
		{"degradations sit beside the blocks", 2, []step{
			{"loss under a partition", func(w *world) {
				w.tb.SetLinkLoss(0, 1, 0.4)
				w.h["p"] = w.tb.Partition(1)
			}, []string{"0>1", "1>0"}, []string{"0>1 loss=0.4 delay=0"}},
			{"the heal keeps the loss", func(w *world) { w.h["p"].Heal() },
				nil, []string{"0>1 loss=0.4 delay=0"}},
			{"clearing the loss keeps a block", func(w *world) {
				w.tb.SetLink(0, 1, true)
				w.tb.SetLinkLoss(0, 1, 0)
			}, []string{"0>1"}, nil},
			{"delay is directed", func(w *world) { w.tb.SetLinkDelay(1, 0, 20) },
				[]string{"0>1"}, []string{"1>0 loss=0 delay=20"}},
			{"a factor of 1 or less restores", func(w *world) { w.tb.SetLinkDelay(1, 0, 1) },
				[]string{"0>1"}, nil},
		}},
		{"Heal clears every block and no degradation", 3, []step{
			{"two partitions, a toggle, a loss, then Heal", func(w *world) {
				w.tb.Partition(0)
				w.tb.PartitionDir(env.LinkInboundOnly, 2)
				w.tb.SetLink(1, 2, true)
				w.tb.SetLinkLoss(2, 0, 1)
				w.tb.Heal()
			}, nil, []string{"2>0 loss=1 delay=0"}},
			{"a later peer inherits nothing", func(w *world) { w.tb.AddPeer(2) }, nil,
				[]string{"2>0 loss=1 delay=0"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &world{tb: New(LoopConfined{}), h: map[string]*BlockHandle{}}
			for id := 0; id < tc.peers; id++ {
				w.tb.AddPeer(env.NodeID(id))
			}
			for _, st := range tc.steps {
				st.do(w)
				blocked, degraded := w.state(tc.peers)
				sort.Strings(st.blocked)
				if fmt.Sprint(blocked) != fmt.Sprint(st.blocked) {
					t.Fatalf("%s: blocked links %v, want %v", st.what, blocked, st.blocked)
				}
				if fmt.Sprint(degraded) != fmt.Sprint(st.degraded) {
					t.Fatalf("%s: degraded links %v, want %v", st.what, degraded, st.degraded)
				}
				if faulty := len(blocked) + len(degraded); faulty == 0 && len(w.tb.links) != 0 {
					t.Fatalf("%s: a healthy table still holds %d records", st.what, len(w.tb.links))
				}
			}
		})
	}
}

// TestLinkLookupDoesNotAllocate: both runtimes call Link on every send.
func TestLinkLookupDoesNotAllocate(t *testing.T) {
	tb := New(LoopConfined{})
	tb.AddPeer(0)
	tb.AddPeer(1)
	tb.SetLinkLoss(0, 1, 0.5)
	var hit bool
	if n := testing.AllocsPerRun(100, func() {
		hit = tb.Link(0, 1).Loss > 0 && !tb.Link(1, 0).Blocked()
	}); n != 0 || !hit {
		t.Fatalf("Link allocated %v times per lookup pair (hit=%v)", n, hit)
	}
}

// TestMutatorsHoldTheLocker runs every mutator from several goroutines
// against readers holding the read lock — the livenet arrangement. Under
// -race an unlocked mutator fails here.
func TestMutatorsHoldTheLocker(t *testing.T) {
	var mu sync.RWMutex
	tb := New(&mu)
	for id := env.NodeID(0); id < 4; id++ {
		tb.AddPeer(id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g env.NodeID) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := tb.PartitionDir(env.LinkDir(i%3), g)
				tb.SetLink(g, (g+1)%4, i%2 == 0)
				tb.SetLinkLoss(g, (g+2)%4, float64(i%2))
				tb.SetLinkDelay(g, (g+3)%4, float64(i%3))
				mu.RLock()
				_ = tb.Link(g, (g+1)%4)
				mu.RUnlock()
				h.Heal()
				if i%50 == 0 {
					tb.AddPeer(4 + g)
					tb.Heal()
				}
			}
		}(env.NodeID(g))
	}
	wg.Wait()
	for g := env.NodeID(0); g < 4; g++ {
		tb.SetLink(g, (g+1)%4, false)
		tb.SetLinkLoss(g, (g+2)%4, 0)
		tb.SetLinkDelay(g, (g+3)%4, 0)
	}
	if len(tb.links) != 0 || len(tb.parts) != 0 {
		t.Fatalf("after every fault cleared: %d link records, %d partitions", len(tb.links), len(tb.parts))
	}
}

package netfault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"robuststore/internal/env"
)

// world is one table plus the handles a scenario has opened.
type world struct {
	tb *Table
	h  map[string]*Handle
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

func ids(n ...env.NodeID) []env.NodeID { return n }

// TestTable holds the link-fault table's named behaviours; each runtime
// keeps a single test that its sends consult the table, and
// TestTableMatchesReferenceModel covers the rest.
func TestTable(t *testing.T) {
	cases := []struct {
		name  string
		peers int
		steps []step
	}{
		{"named peers are taken as given", 3, []step{
			{"sever 0>1", func(w *world) {
				w.h["c"] = w.tb.Open(Fault{Nodes: ids(0), Peers: ids(1), Dir: env.LinkOutboundOnly, Sever: true})
			}, []string{"0>1"}, nil},
			{"heal it", func(w *world) { w.h["c"].Heal() }, nil, nil},
			{"a victim among the peers cuts its loopback and the victims' links", func(w *world) {
				w.h["l"] = w.tb.Open(Fault{Nodes: ids(0, 1), Peers: ids(0, 1), Loss: 0.5})
			}, nil, []string{"0>0 loss=0.5 delay=0", "0>1 loss=0.5 delay=0", "1>0 loss=0.5 delay=0", "1>1 loss=0.5 delay=0"}},
			{"the default peers leave both alone", func(w *world) {
				w.h["l"].Heal()
				w.h["l"] = w.tb.Open(Fault{Nodes: ids(0, 1), Dir: env.LinkOutboundOnly, Loss: 0.5})
			}, nil, []string{"0>2 loss=0.5 delay=0", "1>2 loss=0.5 delay=0"}},
		}},
		{"handles compose", 3, []step{
			{"isolate 1", func(w *world) { w.h["a"] = w.tb.Open(Fault{Nodes: ids(1), Sever: true}) },
				[]string{"0>1", "1>0", "1>2", "2>1"}, nil},
			{"isolate 2 on top", func(w *world) { w.h["b"] = w.tb.Open(Fault{Nodes: ids(2), Sever: true}) },
				[]string{"0>1", "0>2", "1>0", "1>2", "2>0", "2>1"}, nil},
			{"healing the first leaves the second", func(w *world) { w.h["a"].Heal() },
				[]string{"0>2", "1>2", "2>0", "2>1"}, nil},
			{"healing twice is a no-op", func(w *world) { w.h["a"].Heal() },
				[]string{"0>2", "1>2", "2>0", "2>1"}, nil},
			{"healing the second opens everything", func(w *world) { w.h["b"].Heal() }, nil, nil},
		}},
		{"one-way loss", 2, []step{
			{"outbound: the victim hears but cannot answer",
				func(w *world) { w.h["o"] = w.tb.Open(Fault{Nodes: ids(1), Dir: env.LinkOutboundOnly, Sever: true}) },
				[]string{"1>0"}, nil},
			{"inbound: the victim speaks but hears nothing", func(w *world) {
				w.h["o"].Heal()
				w.tb.Open(Fault{Nodes: ids(1), Dir: env.LinkInboundOnly, Sever: true})
			}, []string{"0>1"}, nil},
		}},
		{"a late peer joins the majority side", 3, []step{
			{"isolate 1 while peer 2 is unknown", func(w *world) {
				w.tb = New(LoopConfined{})
				w.tb.AddPeer(0)
				w.tb.AddPeer(1)
				w.h["p"] = w.tb.Open(Fault{Nodes: ids(1), Sever: true})
				w.h["g"] = w.tb.Open(Fault{Nodes: ids(0), Peers: ids(1), Loss: 0.5})
			}, []string{"0>1", "1>0"}, []string{"0>1 loss=0.5 delay=0", "1>0 loss=0.5 delay=0"}},
			{"peer 2 arrives: the default peers extend, the named ones do not", func(w *world) { w.tb.AddPeer(2) },
				[]string{"0>1", "1>0", "1>2", "2>1"}, []string{"0>1 loss=0.5 delay=0", "1>0 loss=0.5 delay=0"}},
			{"the heals cover the late links", func(w *world) {
				w.h["p"].Heal()
				w.h["g"].Heal()
			}, nil, nil},
			{"a healed fault no longer extends", func(w *world) { w.tb.AddPeer(2) }, nil, nil},
		}},
		{"degradations sit beside the blocks", 2, []step{
			{"loss under a partition", func(w *world) {
				w.h["l"] = w.tb.Open(Fault{Nodes: ids(0), Dir: env.LinkOutboundOnly, Loss: 0.4})
				w.h["p"] = w.tb.Open(Fault{Nodes: ids(1), Sever: true})
			}, []string{"0>1", "1>0"}, []string{"0>1 loss=0.4 delay=0"}},
			{"the partition's heal keeps the loss", func(w *world) { w.h["p"].Heal() },
				nil, []string{"0>1 loss=0.4 delay=0"}},
			{"a heavier loss on the same link wins", func(w *world) {
				w.h["m"] = w.tb.Open(Fault{Nodes: ids(1), Dir: env.LinkInboundOnly, Loss: 0.9})
			}, nil, []string{"0>1 loss=0.9 delay=0"}},
			{"healing the lighter one keeps the heavier", func(w *world) { w.h["l"].Heal() },
				nil, []string{"0>1 loss=0.9 delay=0"}},
			{"delay is directed and sits beside loss", func(w *world) {
				w.h["d"] = w.tb.Open(Fault{Nodes: ids(1), Dir: env.LinkBothWays, Delay: 20})
			}, nil, []string{"0>1 loss=0.9 delay=20", "1>0 loss=0 delay=20"}},
			{"a factor of 1 or less is no delay", func(w *world) {
				w.tb.Open(Fault{Nodes: ids(0), Delay: 1})
				w.h["m"].Heal()
			}, nil, []string{"0>1 loss=0 delay=20", "1>0 loss=0 delay=20"}},
			{"the last heal empties the table", func(w *world) { w.h["d"].Heal() }, nil, nil},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &world{tb: New(LoopConfined{}), h: map[string]*Handle{}}
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

// refTable is the table reduced to its definition: the set of open faults
// and of registered peers, with every link derived from them on demand.
type refTable struct {
	peers map[env.NodeID]bool
	open  map[int]Fault
}

// covers reports whether f covers the directed link from → to.
func (r *refTable) covers(f Fault, from, to env.NodeID) bool {
	in := func(set []env.NodeID, id env.NodeID) bool {
		for _, x := range set {
			if x == id {
				return true
			}
		}
		return false
	}
	peer := func(b env.NodeID) bool {
		if f.Peers == nil {
			return r.peers[b] && !in(f.Nodes, b)
		}
		return in(f.Peers, b)
	}
	return in(f.Nodes, from) && f.Dir != env.LinkInboundOnly && peer(to) ||
		in(f.Nodes, to) && f.Dir != env.LinkOutboundOnly && peer(from)
}

func (r *refTable) link(from, to env.NodeID) Link {
	var l Link
	for _, f := range r.open {
		if !r.covers(f, from, to) {
			continue
		}
		l.blocked = l.blocked || f.Sever
		l.Loss = max(l.Loss, f.Loss)
		if f.Delay > 1 {
			l.Delay = max(l.Delay, f.Delay)
		}
	}
	return l
}

// TestTableMatchesReferenceModel drives the table and refTable with the
// same random sequences of Open (every direction and effect, default and
// named peers, victims registered or not yet), Heal (twice, sometimes) and
// AddPeer over 500 seeds. After every operation every link among the nodes
// must agree on Blocked, Loss and Delay, and once every handle is healed
// the table must hold no record.
func TestTableMatchesReferenceModel(t *testing.T) {
	const nodes = 6
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	effects := []func(*rand.Rand) Fault{
		func(*rand.Rand) Fault { return Fault{Sever: true} },
		func(rng *rand.Rand) Fault { return Fault{Loss: float64(1+rng.Intn(10)) / 10} },
		func(rng *rand.Rand) Fault { return Fault{Delay: float64(rng.Intn(40))} },
		func(rng *rand.Rand) Fault {
			return Fault{Sever: rng.Intn(2) == 0, Loss: float64(rng.Intn(10)) / 10, Delay: float64(rng.Intn(40))}
		},
	}
	subset := func(rng *rand.Rand, most int) []env.NodeID {
		var out []env.NodeID
		for _, i := range rng.Perm(nodes)[:1+rng.Intn(most)] {
			out = append(out, env.NodeID(i))
		}
		return out
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := New(LoopConfined{})
		ref := &refTable{peers: map[env.NodeID]bool{}, open: map[int]Fault{}}
		handles := map[int]*Handle{}
		var healed []*Handle
		next := 0
		for op := 0; op < 60; op++ {
			var what string
			switch r := rng.Intn(10); {
			case r < 2:
				id := env.NodeID(rng.Intn(nodes))
				tb.AddPeer(id)
				ref.peers[id] = true
				what = fmt.Sprintf("AddPeer(%d)", id)
			case r < 6:
				f := effects[rng.Intn(len(effects))](rng)
				f.Nodes = subset(rng, 3)
				if rng.Intn(3) == 0 {
					f.Peers = subset(rng, nodes)
				}
				f.Dir = env.LinkDir(rng.Intn(3))
				handles[next] = tb.Open(f)
				ref.open[next] = f
				what = fmt.Sprintf("Open(%+v) = #%d", f, next)
				next++
			case len(handles) > 0:
				k := rng.Intn(next)
				for handles[k] == nil {
					k = (k + 1) % next
				}
				handles[k].Heal()
				healed = append(healed, handles[k])
				delete(handles, k)
				delete(ref.open, k)
				what = fmt.Sprintf("Heal(#%d)", k)
			default:
				continue
			}
			if rng.Intn(4) == 0 && len(healed) > 0 {
				healed[rng.Intn(len(healed))].Heal() // a second heal changes nothing
			}
			for a := env.NodeID(0); a < nodes; a++ {
				for b := env.NodeID(0); b < nodes; b++ {
					if got, want := tb.Link(a, b), ref.link(a, b); got != want {
						t.Fatalf("seed %d, after %s: link %d>%d is %+v, the reference %+v", seed, what, a, b, got, want)
					}
				}
			}
		}
		for k, h := range handles {
			h.Heal()
			delete(ref.open, k)
		}
		if len(tb.links) != 0 || len(tb.open) != 0 {
			t.Fatalf("seed %d: every handle healed, but the table holds %d link records and %d open handles", seed, len(tb.links), len(tb.open))
		}
	}
}

// TestLinkLookupDoesNotAllocate: both runtimes call Link on every send.
func TestLinkLookupDoesNotAllocate(t *testing.T) {
	tb := New(LoopConfined{})
	tb.AddPeer(0)
	tb.AddPeer(1)
	tb.Open(Fault{Nodes: ids(0), Dir: env.LinkOutboundOnly, Loss: 0.5})
	var hit bool
	if n := testing.AllocsPerRun(100, func() {
		hit = tb.Link(0, 1).Loss > 0 && !tb.Link(1, 0).Blocked()
	}); n != 0 || !hit {
		t.Fatalf("Link allocated %v times per lookup pair (hit=%v)", n, hit)
	}
}

// TestMutatorsHoldTheLocker runs Open, Heal and AddPeer from several
// goroutines against readers holding the read lock — the livenet
// arrangement. Under -race an unlocked mutator fails here.
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
				hs := []*Handle{
					tb.Open(Fault{Nodes: ids(g), Dir: env.LinkDir(i % 3), Sever: true}),
					tb.Open(Fault{Nodes: ids(g), Peers: ids((g + 1) % 4), Loss: float64(i % 2)}),
					tb.Open(Fault{Nodes: ids(g), Peers: ids((g + 3) % 4), Delay: float64(i % 3)}),
				}
				mu.RLock()
				_ = tb.Link(g, (g+1)%4)
				mu.RUnlock()
				for _, h := range hs {
					h.Heal()
				}
				if i%50 == 0 {
					tb.AddPeer(4 + g)
				}
			}
		}(env.NodeID(g))
	}
	wg.Wait()
	if len(tb.links) != 0 || len(tb.open) != 0 {
		t.Fatalf("after every fault healed: %d link records, %d open handles", len(tb.links), len(tb.open))
	}
}

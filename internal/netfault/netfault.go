// Package netfault is the link-fault table of a node runtime: which
// directed links are severed, lossy or slow right now. Both runtimes
// (internal/sim, internal/livenet) own one Table and consult it once per
// send, so a faultload means the same thing on virtual time and on real
// goroutines. The table holds state only; drawing the loss random number
// and stretching the delivery delay stay with the runtime, which owns the
// random stream and the clock.
//
// Every fault is opened with Open and returns the Handle that heals it.
// Open faults compose under one rule: a link is severed while any open
// handle severs it, and its loss and its delay are each the worst among the
// open handles that cover it. Healing a handle recomputes the links it
// covered from the handles still open, so it lifts exactly what it opened.
package netfault

import (
	"slices"
	"sync"

	"robuststore/internal/env"
)

// Link is the fault state of one directed link; the zero value is a
// healthy link.
type Link struct {
	blocked bool

	// Loss is the per-message drop probability (0 when none). Rates above
	// 1 saturate to certain loss.
	Loss float64

	// Delay is the latency multiplier, 0 when none and otherwise > 1.
	Delay float64
}

// Blocked reports whether the link drops all traffic.
func (l Link) Blocked() bool { return l.blocked }

type linkKey struct{ from, to env.NodeID }

// Fault is one link fault: what happens to the directed links between the
// Nodes and the Peers they are cut from.
type Fault struct {
	// Nodes is the victim set.
	Nodes []env.NodeID

	// Peers are the nodes the victims are cut from, taken as given: a
	// victim listed here also cuts its loopback and its links to the other
	// victims, so Nodes = Peers = the cluster faults every link. Nil means
	// every node outside Nodes, newcomers included: a node added while
	// the fault is open joins the healthy side.
	Peers []env.NodeID

	// Dir selects the directions, relative to Nodes: LinkOutboundOnly
	// faults only what the victims send, LinkInboundOnly only what they
	// receive.
	Dir env.LinkDir

	// The effect on each covered link: Sever drops all traffic, Loss drops
	// each message with that probability (a flaky path), and Delay
	// multiplies the latency of one that still delivers (a congested
	// path; a factor ≤ 1 is none).
	Sever bool
	Loss  float64
	Delay float64
}

// Table is the fault state of every directed link of one cluster. Open,
// Heal and AddPeer hold the Locker given to New; Link takes no lock, so a
// goroutine-safe runtime holds its read lock around it.
type Table struct {
	mu    sync.Locker
	links map[linkKey]Link // only links with a fault have a record
	peers []env.NodeID
	open  []*Handle
}

// LoopConfined is the Locker of a single-threaded runtime: no lock at all.
type LoopConfined struct{}

func (LoopConfined) Lock()   {}
func (LoopConfined) Unlock() {}

// New returns an empty table whose mutators hold mu.
func New(mu sync.Locker) *Table {
	return &Table{mu: mu, links: make(map[linkKey]Link)}
}

// Link returns the fault state of the directed link from → to.
func (t *Table) Link(from, to env.NodeID) Link { return t.links[linkKey{from, to}] }

// settle recomputes link k from the open handles that cover it, dropping
// its record once healthy so the table of a fault-free cluster stays empty.
// Caller holds mu.
func (t *Table) settle(k linkKey) {
	var l Link
	for _, h := range t.open {
		if !h.links[k] {
			continue
		}
		l.blocked = l.blocked || h.f.Sever
		l.Loss = max(l.Loss, h.f.Loss)
		if h.f.Delay > 1 {
			l.Delay = max(l.Delay, h.f.Delay)
		}
	}
	if l == (Link{}) {
		delete(t.links, k)
	} else {
		t.links[k] = l
	}
}

// AddPeer registers a cluster member; the runtime calls it for every node
// it adds. Open faults cut from every other node extend to the newcomer:
// it joins on the healthy side, so a node booted by a live rebalance
// during a partition cannot straddle an isolated set.
func (t *Table) AddPeer(id env.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = append(t.peers, id)
	for _, h := range t.open {
		if h.f.Peers == nil && !slices.Contains(h.f.Nodes, id) {
			h.cover(id)
		}
	}
}

// Handle is one open fault. Healing it lifts exactly what it opened.
type Handle struct {
	t     *Table
	f     Fault
	links map[linkKey]bool // the links it covers; nil once healed
}

// Open puts f on its links and returns the handle that heals it.
func (t *Table) Open(f Fault) *Handle {
	h := &Handle{t: t, f: f, links: map[linkKey]bool{}}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open = append(t.open, h)
	if f.Peers != nil {
		for _, b := range f.Peers {
			h.cover(b)
		}
		return h
	}
	for _, b := range t.peers {
		if !slices.Contains(f.Nodes, b) {
			h.cover(b)
		}
	}
	return h
}

// cover adds the links between peer b and every victim to the handle, in
// the handle's directions. Caller holds mu; h is open.
func (h *Handle) cover(b env.NodeID) {
	add := func(from, to env.NodeID) {
		k := linkKey{from, to}
		h.links[k] = true
		h.t.settle(k)
	}
	for _, a := range h.f.Nodes {
		if h.f.Dir != env.LinkInboundOnly {
			add(a, b)
		}
		if h.f.Dir != env.LinkOutboundOnly {
			add(b, a)
		}
	}
}

// Heal lifts the fault: every link it covered is recomputed from the
// handles still open. Idempotent.
func (h *Handle) Heal() {
	t := h.t
	t.mu.Lock()
	defer t.mu.Unlock()
	i := slices.Index(t.open, h)
	if i < 0 {
		return
	}
	t.open = slices.Delete(t.open, i, i+1)
	for k := range h.links {
		t.settle(k)
	}
	h.links = nil
}

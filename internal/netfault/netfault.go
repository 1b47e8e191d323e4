// Package netfault is the link-fault table of a node runtime: which
// directed links are severed, lossy or slow right now. Both runtimes
// (internal/sim, internal/livenet) own one Table and consult it once per
// send, so a partition faultload means the same thing on virtual time and
// on real goroutines. The table holds state only; drawing the loss
// random number and stretching the delivery delay stay with the runtime,
// which owns the random stream and the clock.
//
// Three layers compose on a link and never clear one another: handle-based
// partitions (refcounted, so overlapping partitions compose and healing
// one leaves the others), SetLink's direct toggles, and the loss/delay
// degradations of a link that still delivers.
package netfault

import (
	"sync"

	"robuststore/internal/env"
)

// Link is the fault state of one directed link; the zero value is a
// healthy link.
type Link struct {
	blocks int  // active partition handles covering the link
	manual bool // SetLink's direct toggle, outside any handle

	// Loss is the per-message drop probability (0 when none). Rates above
	// 1 saturate to certain loss.
	Loss float64

	// Delay is the latency multiplier, 0 when none and otherwise > 1.
	Delay float64
}

// Blocked reports whether the link drops all traffic.
func (l Link) Blocked() bool { return l.blocks > 0 || l.manual }

type linkKey struct{ from, to env.NodeID }

// Table is the fault state of every directed link of one cluster. Every
// mutator, BlockHandle.Heal included, holds the Locker given to New; Link
// takes no lock, so a goroutine-safe runtime holds its read lock around it.
type Table struct {
	mu    sync.Locker
	links map[linkKey]Link // only links with a fault have a record
	peers []env.NodeID
	parts []*BlockHandle // active partitions (extended by AddPeer)
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

// update edits one link's record in place, dropping it once healthy so the
// table of a fault-free cluster stays empty. Caller holds mu.
func (t *Table) update(from, to env.NodeID, edit func(*Link)) {
	k := linkKey{from, to}
	l := t.links[k]
	edit(&l)
	if l == (Link{}) {
		delete(t.links, k)
	} else {
		t.links[k] = l
	}
}

// SetLink blocks or unblocks the directed link from → to. It is a direct
// toggle independent of the handle-based partitions: unblocking a link
// here does not disturb a partition that also covers it.
func (t *Table) SetLink(from, to env.NodeID, blocked bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.update(from, to, func(l *Link) { l.manual = blocked })
}

// SetLinkLoss sets the message loss rate of the directed link from → to
// (rate ≤ 0 clears it), modeling a flaky path rather than a severed one.
// Healing a partition never clears a loss rate.
func (t *Table) SetLinkLoss(from, to env.NodeID, rate float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.update(from, to, func(l *Link) { l.Loss = max(rate, 0) })
}

// SetLinkDelay inflates the latency of the directed link from → to by
// factor (≤ 1 restores it), modeling a congested path that still delivers
// every message — the latency cousin of SetLinkLoss.
func (t *Table) SetLinkDelay(from, to env.NodeID, factor float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if factor <= 1 {
		factor = 0
	}
	t.update(from, to, func(l *Link) { l.Delay = factor })
}

// AddPeer registers a cluster member; the runtime calls it for every node
// it adds. Active partitions extend to the newcomer: it joins on the
// majority side, so a node booted by a live rebalance during a partition
// cannot straddle an isolated set.
func (t *Table) AddPeer(id env.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = append(t.peers, id)
	for _, h := range t.parts {
		h.blockFrom(id)
	}
}

// BlockHandle is one composable set of directed link blocks (one
// partition). Healing it removes exactly the blocks it installed.
type BlockHandle struct {
	t     *Table
	dir   env.LinkDir
	side  map[env.NodeID]bool // the isolated set
	links []linkKey           // blocks installed; nil once healed
}

// Partition isolates the given nodes from the rest of the cluster in both
// directions and returns the handle that heals exactly this partition.
func (t *Table) Partition(isolated ...env.NodeID) *BlockHandle {
	return t.PartitionDir(env.LinkBothWays, isolated...)
}

// PartitionDir is Partition with an explicit direction: LinkOutboundOnly
// and LinkInboundOnly model asymmetric one-way loss relative to the
// isolated set.
func (t *Table) PartitionDir(dir env.LinkDir, isolated ...env.NodeID) *BlockHandle {
	h := &BlockHandle{t: t, dir: dir, side: make(map[env.NodeID]bool, len(isolated))}
	for _, id := range isolated {
		h.side[id] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.peers {
		h.blockFrom(b)
	}
	t.parts = append(t.parts, h)
	return h
}

// blockFrom installs the handle's blocks between outside node b and every
// isolated node, honoring the handle's direction. Caller holds mu.
func (h *BlockHandle) blockFrom(b env.NodeID) {
	if h.side[b] {
		return
	}
	block := func(from, to env.NodeID) {
		h.t.update(from, to, func(l *Link) { l.blocks++ })
		h.links = append(h.links, linkKey{from, to})
	}
	for a := range h.side {
		if h.dir != env.LinkInboundOnly {
			block(a, b)
		}
		if h.dir != env.LinkOutboundOnly {
			block(b, a)
		}
	}
}

// Heal removes this handle's blocks. Idempotent.
func (h *BlockHandle) Heal() {
	h.t.mu.Lock()
	defer h.t.mu.Unlock()
	h.heal()
}

func (h *BlockHandle) heal() {
	for _, k := range h.links {
		h.t.update(k.from, k.to, func(l *Link) { l.blocks-- })
	}
	h.links = nil
	for i, p := range h.t.parts {
		if p == h {
			h.t.parts = append(h.t.parts[:i], h.t.parts[i+1:]...)
			break
		}
	}
}

// Heal removes all link blocks: every active partition handle is healed
// and every SetLink toggle cleared. Loss rates and delay factors stay.
func (t *Table) Heal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.parts) > 0 {
		t.parts[len(t.parts)-1].heal()
	}
	for k := range t.links {
		t.update(k.from, k.to, func(l *Link) { l.manual = false })
	}
}

package sim

import (
	"slices"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/seqwin"
)

// DiskConfig models each node's local disk (§5.1: one 40 GB 7200 rpm
// disk). Log appends are group-committed: all appends queued while a flush
// is in progress are made durable by the next single flush, which is how
// Treplica amortizes stable-storage latency under write-heavy workloads.
type DiskConfig struct {
	// SyncLatency is the base cost of one synchronous flush
	// (seek + rotational delay). Default 4 ms.
	SyncLatency time.Duration

	// SyncJitter makes flush latency heavy-tailed:
	// duration = SyncLatency × ((1-j/2) + j·Exp(1)) for j = SyncJitter,
	// preserving the mean at SyncLatency × (1+j/2). Larger phase-2
	// quorums then wait on higher order statistics of the flush time,
	// which is what makes write latency grow with the replication
	// degree (paper Figure 4, ordering). Default 0.
	SyncJitter float64

	// WriteBandwidth is the sequential write bandwidth in bytes/second.
	// Default 45 MB/s.
	WriteBandwidth float64

	// ReadBandwidth is the effective sequential read bandwidth for
	// recovery (checkpoint load + log scan), in bytes/second. The paper's
	// recovery times (Figure 6: ≈ 63 s for a 500 MB state) imply an
	// effective rate far below raw disk speed — the cost includes
	// deserialization of the Java heap image — so the default is
	// deliberately low: 8 MB/s.
	ReadBandwidth float64
}

func (dc DiskConfig) withDefaults() DiskConfig {
	if dc.SyncLatency == 0 {
		dc.SyncLatency = 4 * time.Millisecond
	}
	if dc.WriteBandwidth == 0 {
		dc.WriteBandwidth = 45e6
	}
	if dc.ReadBandwidth == 0 {
		dc.ReadBandwidth = 8e6
	}
	return dc
}

// diskStorage implements env.Storage with modeled latency. The durable
// content (records, snapshots) survives Crash/Restart; writes in flight at
// crash time are lost, matching a real volatile write cache being
// discarded on an OS-level kill.
type diskStorage struct {
	sim  *Sim
	node *simNode
	cfg  DiskConfig

	log       seqwin.Window[int64, env.Record] // the WAL; its base is FirstIndex
	snapshots map[string]env.Snapshot

	// Disk head scheduling: one operation at a time, group commit for
	// appends.
	busyUntil time.Time
	pending   []pendingAppend
	spare     []pendingAppend // the last durable batch's buffer, cleared: the next pending
	flushing  bool
	flushFn   func() // d.flush, bound once: binding per call allocates

	// syncing holds the batches whose sync is under way, in the order they
	// become durable; flushedFn (d.flushed, bound once) completes the first.
	syncing   [][]pendingAppend
	flushedFn func()

	// slows holds the factor of every open slowdown of a failing drive
	// (see Sim.SlowDisk); the drive runs at the worst of them: seek
	// latency multiplies by it, bandwidth divides by it. It is a property of
	// the hardware, not of an incarnation, so it survives crashes and
	// restarts.
	slows []*float64
}

type pendingAppend struct {
	rec  env.Record
	done func(error)
	inc  int64
}

var _ env.Storage = (*diskStorage)(nil)

func newDiskStorage(s *Sim, n *simNode, cfg DiskConfig) *diskStorage {
	d := &diskStorage{sim: s, node: n, cfg: cfg, snapshots: make(map[string]env.Snapshot)}
	d.flushFn, d.flushedFn = d.flush, d.flushed
	return d
}

// onCrash discards volatile write-cache state. Durable records stay.
func (d *diskStorage) onCrash() {
	d.pending = nil
	d.flushing = false
	// The disk itself keeps spinning; busyUntil is retained so a very
	// fast restart still queues behind the in-progress physical write.
}

// slowBy opens one slowdown by factor and returns the heal that lifts
// exactly it. Idempotent.
func (d *diskStorage) slowBy(factor float64) (heal func()) {
	h := &factor
	d.slows = append(d.slows, h)
	return func() {
		if i := slices.Index(d.slows, h); i >= 0 {
			d.slows = slices.Delete(d.slows, i, i+1)
		}
	}
}

// slowdown returns the current degradation factor (1 when healthy).
func (d *diskStorage) slowdown() float64 {
	f := 1.0
	for _, s := range d.slows {
		f = max(f, *s)
	}
	return f
}

// seekLatency is one seek + rotational delay under the current slowdown.
func (d *diskStorage) seekLatency() time.Duration {
	return time.Duration(float64(d.cfg.SyncLatency) * d.slowdown())
}

// xferTime is the transfer time of bytes at the given healthy bandwidth,
// stretched by the current slowdown.
func (d *diskStorage) xferTime(bytes int64, bandwidth float64) time.Duration {
	return time.Duration(float64(bytes) / bandwidth * d.slowdown() * float64(time.Second))
}

// reserve allocates disk time of length dur starting no earlier than now
// and returns the completion time.
func (d *diskStorage) reserve(dur time.Duration) time.Time {
	start := d.sim.now
	if d.busyUntil.After(start) {
		start = d.busyUntil
	}
	d.busyUntil = start.Add(dur)
	return d.busyUntil
}

func (d *diskStorage) Append(rec env.Record, done func(error)) {
	d.pending = append(d.pending, pendingAppend{rec: rec, done: done, inc: d.node.incarnation})
	if !d.flushing {
		d.flushing = true
		// Defer the flush by one event so appends issued in the same
		// instant share one group commit.
		d.sim.At(d.sim.now, d.flushFn)
	}
}

// AppendBatch appends a pre-coalesced batch: every record joins the same
// pending group, so the whole batch (plus anything else pending) is made
// durable by one flush — one sync latency plus the summed transfer time —
// and done fires once, after the last record of the batch.
func (d *diskStorage) AppendBatch(recs []env.Record, done func(error)) {
	if len(recs) == 0 {
		if done != nil {
			d.sim.schedule(d.sim.now, event{kind: evNode, node: d.node, inc: d.node.incarnation,
				fn: func() { done(nil) }})
		}
		return
	}
	for i, rec := range recs {
		var cb func(error)
		if i == len(recs)-1 {
			cb = done
		}
		d.pending = append(d.pending, pendingAppend{rec: rec, done: cb, inc: d.node.incarnation})
	}
	if !d.flushing {
		d.flushing = true
		d.sim.At(d.sim.now, d.flushFn)
	}
}

func (d *diskStorage) flush() {
	if len(d.pending) == 0 {
		d.flushing = false
		return
	}
	d.flushing = true
	batch := d.pending
	d.pending, d.spare = d.spare, nil
	var bytes int64
	for _, p := range batch {
		bytes += p.rec.Size
	}
	dur := d.syncDuration() + d.xferTime(bytes, d.cfg.WriteBandwidth)
	d.syncing = append(d.syncing, batch)
	d.sim.At(d.reserve(dur), d.flushedFn)
}

// flushed is the durability point of the first batch syncing: it is on disk
// now. reserve hands out disk time serially, so syncs complete in the order
// flush scheduled them, also where two flush chains overlap after a crash and
// restart (onCrash).
func (d *diskStorage) flushed() {
	batch := d.syncing[0]
	n := copy(d.syncing, d.syncing[1:])
	d.syncing[n] = nil
	d.syncing = d.syncing[:n]
	for _, p := range batch {
		d.log.Append(p.rec)
		if p.done != nil && d.node.alive && d.node.incarnation == p.inc {
			p.done(nil)
		}
	}
	// Hand the buffer back for the next batch. Of two overlapping chains'
	// buffers, the second to finish is dropped.
	if d.spare == nil {
		clear(batch)
		d.spare = batch[:0]
	}
	d.flush()
}

// syncDuration draws one flush latency from the (possibly heavy-tailed)
// sync distribution.
func (d *diskStorage) syncDuration() time.Duration {
	base := d.seekLatency()
	j := d.cfg.SyncJitter
	if j <= 0 {
		return base
	}
	f := (1 - j/2) + j*d.sim.rng.ExpFloat64()
	return time.Duration(float64(base) * f)
}

// chunked performs a large transfer in 1 MiB slices so that concurrent
// small operations (WAL group commits) interleave with it instead of
// stalling behind one monolithic reservation — the behaviour of a real
// disk shared between a checkpoint stream and the log. done runs at
// completion unless the node crashed meanwhile.
func (d *diskStorage) chunked(bytes int64, bandwidth float64, done func()) {
	const chunk = 1 << 20
	inc := d.node.incarnation
	var step func(remaining int64)
	step = func(remaining int64) {
		n := int64(chunk)
		if remaining < n {
			n = remaining
		}
		// Bandwidth is re-derated per chunk, so a slowdown applied (or
		// lifted) mid-transfer shapes the remainder of the stream.
		doneAt := d.reserve(d.xferTime(n, bandwidth))
		d.sim.At(doneAt, func() {
			if remaining-n > 0 {
				step(remaining - n)
				return
			}
			if d.node.incarnation == inc {
				done()
			}
		})
	}
	doneAt := d.reserve(d.seekLatency())
	d.sim.At(doneAt, func() { step(bytes) })
}

func (d *diskStorage) ReadRecords(done func([]env.Record, error)) {
	var bytes int64
	recs := make([]env.Record, 0, d.log.End()-d.log.Base())
	for _, r := range d.log.From(d.log.Base()) {
		bytes += r.Size
		recs = append(recs, *r)
	}
	inc := d.node.incarnation
	d.chunked(bytes, d.cfg.ReadBandwidth, func() {
		if d.node.alive && d.node.incarnation == inc {
			done(recs, nil)
		}
	})
}

func (d *diskStorage) Truncate(firstKept int64, done func(error)) {
	d.log.DropBelow(min(firstKept, d.log.End()))
	// Truncation is metadata only: charge one sync.
	doneAt := d.reserve(d.seekLatency())
	inc := d.node.incarnation
	d.sim.At(doneAt, func() {
		if done != nil && d.node.alive && d.node.incarnation == inc {
			done(nil)
		}
	})
}

func (d *diskStorage) FirstIndex() int64 { return d.log.Base() }

func (d *diskStorage) SaveSnapshot(name string, snap env.Snapshot, done func(error)) {
	inc := d.node.incarnation
	d.chunked(snap.Size, d.cfg.WriteBandwidth, func() {
		// Durability point: replace the snapshot atomically. A crash
		// mid-write leaves the previous snapshot intact.
		d.snapshots[name] = snap
		if done != nil && d.node.alive && d.node.incarnation == inc {
			done(nil)
		}
	})
}

func (d *diskStorage) DeleteSnapshot(name string, done func(error)) {
	// Deletion is metadata only: charge one sync, like Truncate.
	doneAt := d.reserve(d.seekLatency())
	inc := d.node.incarnation
	d.sim.At(doneAt, func() {
		delete(d.snapshots, name)
		if done != nil && d.node.alive && d.node.incarnation == inc {
			done(nil)
		}
	})
}

func (d *diskStorage) LoadSnapshot(name string, done func(env.Snapshot, bool)) {
	snap, ok := d.snapshots[name]
	var bytes int64
	if ok {
		bytes = snap.Size
	}
	inc := d.node.incarnation
	d.chunked(bytes, d.cfg.ReadBandwidth, func() {
		if d.node.alive && d.node.incarnation == inc {
			done(snap, ok)
		}
	})
}

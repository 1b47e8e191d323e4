package paxos

import "robuststore/internal/env"

// walDone is what follows a record's durability: fn, or — the acceptor's
// persist-then-reply, spelled as data so that it costs no closure per
// record — sending msg to to. The zero value does nothing.
type walDone struct {
	fn  func(error)
	to  env.NodeID
	msg env.Message
}

// run completes a record's write. fn sees the error; msg is sent only once
// the record is durable, so a promise or vote that failed to persist is
// acknowledged to no one.
func (d walDone) run(e env.Env, err error) {
	switch {
	case d.fn != nil:
		d.fn(err)
	case d.msg != nil && err == nil:
		e.Send(d.to, d.msg)
	}
}

// walWriter sits between the engine and env.Storage and implements group
// commit: records that arrive while a flush is in flight go out as one
// Storage.AppendBatch call, so the whole group pays one sync latency (the
// dominant per-flush seek cost amortized across concurrently pending
// records, §5.2 of the paper). Completions run only after their records
// are durable: the WAL-before-ack invariant. All methods run on the node's
// executor. Batches retain submission order and AppendBatch completes
// groups in order, so record ordering on disk is submission order — only
// the flush boundaries move.
type walWriter struct {
	e env.Env

	// buf/dones is the group being filled, flyBuf/flyDones the group in
	// flight (empty between flushes). The two pairs trade places at every
	// flush, so a steady stream of groups allocates nothing.
	buf, flyBuf     []env.Record
	dones, flyDones []walDone
	inFlight        bool // an AppendBatch is awaiting durability
	armed           bool // a flush is posted

	// Bound once: binding a method value per flush allocates.
	flushFn   func()
	flushedFn func(error)
}

func newWALWriter(e env.Env) *walWriter {
	w := &walWriter{e: e}
	w.flushFn, w.flushedFn = w.flushNow, w.flushed
	return w
}

// append adds one record to the group being filled. done runs on the
// executor once the record is durable.
func (w *walWriter) append(rec env.Record, done walDone) {
	w.buf = append(w.buf, rec)
	w.dones = append(w.dones, done)
	w.maybeFlush()
}

// maybeFlush schedules a flush of the buffered records unless one is
// already pending or in flight. While a flush is in flight further
// records pile into buf and go out as the next group — that queue-behind-
// the-flush window is where coalescing comes from: it adds no latency at
// low concurrency and converges to full group commit under load.
func (w *walWriter) maybeFlush() {
	if w.inFlight || w.armed || len(w.buf) == 0 {
		return
	}
	// Flush at the next executor step (not inline) so records appended by
	// the same event share the group.
	w.armed = true
	w.e.Post(w.flushFn)
}

func (w *walWriter) flushNow() {
	w.armed = false
	if w.inFlight || len(w.buf) == 0 {
		return
	}
	w.buf, w.flyBuf = w.flyBuf, w.buf
	w.dones, w.flyDones = w.flyDones, w.dones
	w.inFlight = true
	w.e.Storage().AppendBatch(w.flyBuf, w.flushedFn)
}

// flushed completes the group in flight. Storage is through with the
// records once it reports them durable, so both slices are emptied for the
// flush after next.
func (w *walWriter) flushed(err error) {
	w.inFlight = false
	for _, d := range w.flyDones {
		d.run(w.e, err)
	}
	clear(w.flyBuf)
	clear(w.flyDones)
	w.flyBuf, w.flyDones = w.flyBuf[:0], w.flyDones[:0]
	w.maybeFlush()
}

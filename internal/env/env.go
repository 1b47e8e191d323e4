// Package env defines the execution environment abstraction shared by every
// protocol component in this repository.
//
// Protocol code (Paxos, Treplica, the web tier) is written in an
// event-driven style against the Env interface and is therefore runtime
// agnostic: the same code runs on the deterministic virtual-time simulator
// (internal/sim) used by the paper-reproduction experiments and on the real
// goroutine runtime (internal/livenet) used by cmd/robuststore and the live
// tests.
//
// Concurrency contract: every callback into a node — Start, Receive, timer
// callbacks, storage completions — is executed serially on that node's
// executor. Node implementations therefore never need locks for their own
// state.
package env

import "time"

// NodeID identifies a process in the cluster. IDs are small dense integers
// assigned by the runtime.
type NodeID int32

// Message is anything sent between nodes. Messages must be treated as
// immutable once sent; the live runtime may additionally encode them.
type Message any

// Timer is a cancellable, re-armable callback bound to the incarnation
// that created it. It is pending from After or Reset until it fires or is
// stopped; a periodic or per-request user keeps one Timer and re-arms it
// instead of making one per arming.
type Timer interface {
	// Stop cancels the timer. Stopping an already-fired or stopped timer
	// is a no-op. Stop reports whether the callback was prevented from
	// running.
	Stop() bool

	// Reset arms the timer to run its callback once, d from now, whether
	// it has fired, was stopped or is still pending — a pending run is
	// superseded, not added to. Like After, the run dies silently if the
	// node crashes. Call it from the node's executor.
	Reset(d time.Duration)
}

// Env is the interface between a node and its runtime.
type Env interface {
	// ID returns this node's identity.
	ID() NodeID

	// Peers returns the IDs of all cluster members, including this node,
	// in ascending order. The slice must not be mutated.
	Peers() []NodeID

	// Now returns the current time (virtual in the simulator).
	Now() time.Time

	// After schedules fn to run on this node's executor after d. The
	// timer dies silently if the node crashes.
	After(d time.Duration, fn func()) Timer

	// Post schedules fn to run on this node's executor as soon as
	// possible, after currently queued work.
	Post(fn func())

	// Send transmits msg to the peer. Delivery is asynchronous and may
	// fail silently (crashed peer, partition); protocols must tolerate
	// loss. Sending to the local node is allowed and is delivered
	// through the normal path.
	Send(to NodeID, msg Message)

	// Storage returns this node's stable storage, which survives
	// crashes.
	Storage() Storage

	// Rand returns this node's deterministic random stream.
	Rand() Rand

	// Logf records a debug message attributed to this node.
	Logf(format string, args ...any)
}

// LinkDir selects which directions of traffic a partition blocks, relative
// to the isolated node set. Asymmetric partitions model one-way loss (a
// half-open switch port, an asymmetric routing failure): the victims can
// still hear the cluster but not answer it, or the reverse.
type LinkDir int

const (
	// LinkBothWays blocks traffic in both directions — the classic
	// symmetric network partition.
	LinkBothWays LinkDir = iota

	// LinkOutboundOnly blocks only messages FROM the isolated set to the
	// rest: victims receive requests but their replies are lost.
	LinkOutboundOnly

	// LinkInboundOnly blocks only messages TO the isolated set from the
	// rest: victims can speak but hear nothing.
	LinkInboundOnly
)

// String implements fmt.Stringer.
func (d LinkDir) String() string {
	switch d {
	case LinkBothWays:
		return "both"
	case LinkOutboundOnly:
		return "outbound"
	case LinkInboundOnly:
		return "inbound"
	default:
		return "unknown"
	}
}

// Rand is the subset of xrand.Rand the protocols need. It is an interface
// so runtimes can inject instrumented streams.
type Rand interface {
	Intn(n int) int
	Int63n(n int64) int64
	Float64() float64
}

// Node is the unit of deployment. The runtime constructs a fresh Node
// value on every (re)start — a crash destroys all volatile state — while
// the Storage handed to Start persists across restarts.
type Node interface {
	// Start is invoked once per incarnation, before any Receive. The
	// node performs recovery from env.Storage() here.
	Start(e Env)

	// Receive delivers a message sent by peer from.
	Receive(from NodeID, msg Message)
}

// Storage is crash-durable storage: an append-only record log plus a
// snapshot store. Writes are asynchronous — done callbacks run on the
// node's executor after the data is durable — because stable-storage
// latency is a first-order cost in the paper's analysis (§5.2) and the
// simulator models it explicitly.
type Storage interface {
	// Append durably appends a record to the log and then calls done on
	// the node's executor. Appends complete in order. A nil done is
	// allowed.
	Append(rec Record, done func(error))

	// AppendBatch durably appends several records as one group commit:
	// the whole batch shares a single flush (the simulator charges one
	// sync latency plus the summed transfer time; the live runtime
	// performs one write), and done runs once, after every record in the
	// batch is durable. Record order within the batch is preserved, and
	// batches complete in order relative to other Append/AppendBatch
	// calls. The WAL group commit of internal/paxos is built on
	// this call. A nil done is allowed. recs is the caller's
	// to reuse once done has run: an implementation copies what it keeps.
	AppendBatch(recs []Record, done func(error))

	// ReadRecords asynchronously reads the whole retained log, oldest
	// first, and calls done on the node's executor. It is used during
	// Start (recovery); the simulator charges modeled disk-read time
	// before completion.
	ReadRecords(done func([]Record, error))

	// Truncate durably discards log records with index < firstKept
	// (indices are assigned from 0 in append order across the life of
	// the storage, surviving restarts).
	Truncate(firstKept int64, done func(error))

	// FirstIndex returns the index of the oldest retained record, i.e.
	// the count of records ever truncated.
	FirstIndex() int64

	// SaveSnapshot durably replaces the named snapshot.
	SaveSnapshot(name string, snap Snapshot, done func(error))

	// DeleteSnapshot durably removes the named snapshot; deleting an
	// absent name is a no-op. Incremental checkpointing stores its
	// layers as individually named snapshots (a base plus a chain of
	// deltas, see internal/core) and garbage-collects superseded layers
	// after a compaction commits.
	DeleteSnapshot(name string, done func(error))

	// LoadSnapshot asynchronously reads the named snapshot and calls
	// done on the node's executor with ok=false if none was saved.
	// Loading the checkpoint from disk is the dominant recovery cost in
	// the paper (§5.4, Figure 6); the simulator charges disk-read time
	// proportional to the snapshot size before completion.
	LoadSnapshot(name string, done func(snap Snapshot, ok bool))
}

// Record is a single durable log entry. A reader tells records apart by
// the type of Data. Size is the modeled on-disk size in bytes; the
// simulator charges disk time proportional to it (the live runtime keeps
// records in memory and ignores it).
type Record struct {
	Data any
	Size int64
}

// Snapshot is a durable point-in-time state image. Data is opaque to the
// storage layer. Size is the modeled on-disk size (paper state sizes:
// 300/500/700 MB) used for disk-latency accounting.
type Snapshot struct {
	Data any
	Size int64
}

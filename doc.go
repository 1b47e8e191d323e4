// Package robuststore is a from-scratch Go reproduction of "Dynamic
// Content Web Applications: Crash, Failover, and Recovery Analysis"
// (Vieira, Buzato, Zwaenepoel — DSN 2009): the Treplica replication
// middleware (Paxos + Fast Paxos under a replicated state machine with
// checkpoint-based recovery — the abstraction RobustStore uses; Treplica's
// asynchronous persistent queue is not built), the TPC-W
// on-line bookstore retrofitted onto it (RobustStore), and the full
// dependability-benchmark harness — workloads, faultloads and measures —
// that regenerates every table and figure of the paper's evaluation.
//
// Beyond the paper, the store scales out horizontally: internal/shard
// hash-partitions the state across N independent Paxos groups behind a
// deterministic key router, the web tier routes client sessions to their
// owning group, and both the live command (cmd/robuststore -shards) and
// the experiment runner (cmd/experiment -run batching) expose the
// throughput-vs-shard-count dimension.
//
// Routing is explicit, epoch-versioned state, not arithmetic: a
// shard.RoutingTable maps hash-space slices to groups (epoch 0
// reproduces the historical hash%N mapping bit for bit, golden-tested),
// and live migration advances the epoch without downtime. Rebalance —
// one driver (shard.Migration) hosted by both the generic store
// (shard.Store.Rebalance) and the web tier (webtier.Cluster.Rebalance,
// cmd/robuststore -rebalance, cmd/experiment -run rebalance), each
// through the narrow shard.MigrationHost — boots a new group, drains and
// fences the source logs with ordered barriers, streams the moving rows through
// the ordered log as keyed snapshots (core.PartitionedMachine,
// tpcw's ExportOwned/ImportOwned/DropOwned), and publishes the next
// epoch with one atomic cutover; writes to moving keys are delayed by
// the migration window, never failed, and the proxy transparently
// re-routes requests that race the cutover (WrongEpoch redirects).
//
// Checkpoints are incremental: a state machine that implements
// core.DeltaSnapshotter (the bookstore does, via per-table dirty-key
// tracking) has its steady-state checkpoints taken as delta layers —
// only the rows dirtied since the previous checkpoint — chained onto the
// last full base image, LSM-style. The durable layout is a versioned
// base snapshot (ckpt.base.<seq>), delta layers (ckpt.delta.<seq>.<k>)
// and a manifest (the meta snapshot) naming the chain; the manifest
// write is the atomic commit point, so a crash anywhere — mid-delta,
// mid-compaction, between layer and manifest — leaves a consistent
// (base, chain) prefix, never a torn chain. The chain folds back into a
// fresh base when it exceeds core.Config.MaxDeltaChain layers or
// MaxChainFraction of the base size, and a PartitionDrop (shard
// rebalance) forces the fold so dropped rows cannot resurrect from a
// stale layer. Recovery restores base + chain; the remote-snapshot
// fallback streams only the layers a catching-up peer is missing.
// Steady-state checkpoint writes shrink from O(state) to O(recent
// writes), freeing disk bandwidth for the WAL group-commit pipeline.
// There is one layout: a machine without the capability, or a negative
// core.Config.MaxDeltaChain, writes a full base at every checkpoint — the
// paper's full-state checkpoint as a base with an empty chain — and one
// reader and one applier serve local and remote recovery alike.
// cmd/experiment -run checkpoint sweeps the checkpoint interval comparing
// both (the Figure 6 trade-off): recovery time, throughput and checkpoint
// I/O.
//
// The ordering pipeline itself is batched, coalesced and pipelined:
// consensus proposals stream into consecutive instance slots up to
// paxos.Config.MaxInFlight deep — a uniform backpressure bound no
// proposal path can overshoot — while acceptor WAL records coalesce into
// shared group commits (paxos/wal.go: one flush for every record pending
// behind the in-flight sync). A proposer batches the same way: a full
// batch leaves at once, and a partial one at the end of the instant that
// queued it, so the commands submitted in one instant share a value.
// paxos.Config.BatchDelay only spaces partial batches: one proposed less
// than BatchDelay after the last waits out the remainder, gathering what
// arrives meanwhile, and none waits from its first command. Engine.pump
// alone decides that wait. The invariants hold at every depth: the
// learner delivers in instance order, and every promise/accept is durable
// before its reply leaves the node (WAL-before-ack; one whose sync fails is
// acknowledged to no one). Above the
// engine, a rockyardkv-style write-admission controller grades the local
// command backlog (slowdown at 8 and stop at 32 proposer windows, with
// hysteresis; paxos/admission.go), and one gate reads that grade: the
// server a write reached paces, holds or sheds it (webtier request.admit,
// on core.Replica.AdmissionState) — the proxy, like the paper's HAProxy,
// cannot see a queue and gates nothing — so overload degrades to
// queueing latency instead of retry-timeout storms. cmd/experiment -run
// batching measures what this buys on the same simulated disk: saturation
// actions/s of the reference pipeline against wider batches and a deeper
// pipeline, at 1 and 4 shards, offered load printed beside committed.
//
// The log is kept as a log. internal/seqwin is a window over a dense
// sequence — a directory of 256-entry chunks, allocated when first written
// and released whole as the floor passes them — and every dense sequence
// of the ordering path is one: the engine's instances (one slot each for
// the promise, the vote and the decision, where three hash maps keyed by
// instance used to be), the values a proposer has in flight, and the WAL
// records of both runtimes' env.Storage. Prepare, compaction and replay
// walk it in instance order instead of sorting keys, and truncation drops
// chunks instead of copying the remainder. The coordinator's per-instance
// bookkeeping is a window too, of one recycled record per instance with a
// part each for a proposal, a recovery, the fast votes and the moment gap
// repair noticed it; the parts overlap rather than form one phase, because a
// recovery keeps counting fast votes (a fast quorum often decides first) and
// its phase 2 keeps the recovery's start time, which holds off a restart.
// A sequence whose span rises and falls and stays short is a seqwin.Ring
// instead, one circular array that doubles when the span outgrows it and
// keeps its capacity: the completions a replica awaits, found by the
// number the engine gave the command, and a simulated resource's job
// backlog per worker.
//
// A value and a vote exist once. A proposer carves each value it proposes
// (paxos.Value, 64 bytes: the ID, the commands, the modelled size) from its
// engine's value slab, once, and every accept, forward, fast proposal, vote,
// announcement, promise list, recovery reply, catch-up entry, log slot and
// Deliver call holds it by pointer; a retry, a recovery or a new leader
// proposes the same pointer again. The acceptedMsg an acceptor builds when
// it votes is the payload of the WAL record that makes the vote durable, the
// phase-2b message sent once it is, and what the acceptor's log slot points
// at; the coordinator's vote set points at the same object. A decision is
// announced as one chosenMsg for the whole fan-out, and a slot's decision
// is the value's pointer — so a slot is a promise and two pointers, 40
// bytes, a vote 32 and an announcement 16, and none holds a copy of a value.
// The price is a rule, stated at paxos.Value: nothing writes to a value, a
// vote or an announcement after it is built, on either runtime; livenet's
// TestLiveVotesSharedAcrossReplicas holds it under the race detector. The
// rule lets an engine take the records it builds per value, per decision and
// per heartbeat — values, votes, announcements, accepts, pings, and the
// command slices of small batches — from append-only slabs (internal/slab),
// sent by pointer; a forward, one pointer, goes by value and boxes nothing.
// A slab never hands a record out twice and never takes an array back, and
// the collector frees an array whole once nothing in it is reachable. Every
// array is 16 KiB whatever its records (511 votes, 255 values, 102 customer
// rows), less the runtime's header for a large object with pointers, so it
// fills its size class. That, the simulated disk's sync completion bound
// once and the web tier's field strings built in one allocation each took a
// committed action of the benchmark's tpcw_sharded_txn from 16.1 to 11.9
// allocations; the store's rows from its own slabs (below) took it to 9.6.
// Holding the value once took tpcw_crash from 789 to 670 bytes per action.
//
// A classic phase-2b message carries the value's ID, not the value. In a
// plain classic ballot (neither fast nor (s, Rec)) a 2b only acknowledges
// the coordinator's own proposal, which the coordinator reads from its
// proposal record, so the wire carries its ballot, instance and value ID:
// 72 bytes (paxos acceptedMsg.WireSize), where a fast-round or (s, Rec) 2b
// carries the whole value the coordinator weighs. The acceptor's WAL record
// is the whole vote either way, and the one acceptedMsg stays the slot's
// vote, the WAL payload and the message. A group commit releases about
// seven votes at once; charged whole, their 2bs queued on the acceptor's
// NIC, and the benchmark's order_pipeline read a mean of 8.905 ms rather
// than 8.655. paxos TestClassicVoteValueUnread strips the value from every
// such 2b and must decide and deliver the same values, and a design rule
// keeps the coordinator's reads of a received vote's value on the
// fast-vote path (onFastVote, recoverFromVotes).
//
// A decision is learned where it is made and announced once. When a quorum
// of acks (classic) or matching votes (fast) completes, the coordinator
// builds the chosenMsg, sends it to every other member and every attached
// learner, and learns the decision itself, with no message to itself. An ack or vote that arrives later finds the instance
// decided and announces nothing; while the coordinator learned from its own
// loopback announcement, every one that beat the loopback announced the
// value again: a pass of the benchmark's order_pipeline (seed 1) made 56,708
// announcements for 31,818 decisions. paxos.Stats counts announcements,
// collisions, recoveries by cause, retries, catch-up requests and the
// catch-up replies that brought no entry, per engine.
//
// A fast round runs only where a fast quorum leaves an acceptor out. With
// Fast Paxos enabled, a leader opens a fast ballot when the fast quorum
// ⌈3N/4⌉ is smaller than the group, at least that many replicas look
// alive, and no live member is reading its checkpoint; a classic one
// otherwise (paxos Engine.fastPossible, the one place the rule is written).
// In a group of three or fewer the fast quorum is every member: a fast round
// would wait for the slowest acceptor's WAL sync, and stall on a failed one,
// where a classic round waits for the median one, to save a single message
// delay. So such groups always order in classic rounds. A replica restarted
// over a checkpoint boots consensus while the checkpoint streams from the
// same disk (the overlap of §5.4), so its WAL syncs queue behind the read;
// it says so in its heartbeat from boot until the restore ends
// (Engine.SetRestoring, called by core.Replica). A fast quorum of a group of
// five must then count it or every other member, and the slowest of them
// decides each instance; a classic quorum leaves it out. So a group of four
// or more runs fast rounds while ⌈3N/4⌉ of it is alive and none of the live
// members restores, and the leader re-bids, classic or fast, when a restore
// starts or ends. The rule is stricter than it needs to be at N ≥ 8, where
// ⌈3N/4⌉ leaves two acceptors out and a fast quorum could skip the
// restoring one. With SequentialRecovery the engine boots only after the
// restore, so there is nothing to announce.
//
// A fast round's collision costs one coordinated recovery, not a timeout.
// When the votes at an instance leave no value able to reach a fast quorum,
// the coordinator runs a classic round there: a classic quorum reports its
// votes, and Fast Paxos's rule picks the value of a classic top ballot, else
// a value enough of the quorum voted for that it may have been chosen, else —
// nothing can have been chosen — any value at all (the free choice). Two
// proposers' values that reach the acceptors in opposite orders collide at
// two instances at once; a tie-break that picks the same value at both leaves
// the other with no vote anywhere, and its proposer re-sends it only after
// RetryTimeout. So the free choice takes a reported value the coordinator has
// not already placed — delivered, or being proposed at another instance —
// before most votes and the lowest value ID. Only the free choice looks:
// where the rule names a value, that value is the only safe one, and one
// placed twice is still delivered once.
//
// That classic round needs no phase 1 when the coordinator already holds
// fast votes from a classic quorum (Lamport's Fast Paxos, coordinated
// recovery): a vote of fast round s is the promise of the round right after
// s. paxos.Ballot has that round, (s, Rec): it sorts after s and before
// s+1, belongs to s's owner and takes a classic quorum, so the coordinator
// weighs its votes with the rule above and proposes at (s, Rec) at once — no
// per-instance query, no promise synced on every acceptor's disk. The round
// must be the adjacent one: at a fresh ballot of its own, above a rival's
// round k > s that it has seen, the coordinator could choose the value its
// votes favour where k already chose another (paxos
// TestRecoveryRoundFollowsFastRound). A hedge, a fast instance still short of
// a fast quorum after fastDecisionTimeout, recovers this way once a classic
// quorum has voted. A collision waits for the last member's vote: its votes
// never force a value (that is what a collision is), and a free choice made
// before the last vote arrives can strand the value that vote carries; the
// hedge recovers the instance if the vote never comes. Fewer votes than a
// classic quorum, gap repair and a recovery restarted after RetryTimeout
// still run phase 1 at a fresh ballot.
//
// An acceptor answers from one floor: below it its votes were compacted
// away, at or above it the log holds every vote it cast. A promise lists
// votes from there, and a recovery query below it goes unanswered, since
// "never voted" could let a recovery choose a second value. An accept is
// taken lower, wherever the log still holds the slot: a node that boots
// below its last compaction barrier, its checkpoint older than the barrier,
// still votes there (paxos TestVoteBelowBarrierFloor), and the log's base
// never lies above the floor, so every vote a promise lists is one an accept
// can replace. What the node has delivered plays no part. When it did, a
// node whose delivery floor was above its vote floor listed votes it would
// not replace, and after a whole-group restart a round that needs every live
// ack stalled on them.
//
// The simulator's loop holds an entry for what will run and for nothing
// else (sim/queue.go). Events — callbacks, posts, deliveries, disk
// completions — are values in a 4-ary heap; an armed timer is one entry of
// a second, indexed heap, which a Reset re-keys where it lies and a Stop
// removes; a sim.Resource keeps each worker's admitted jobs in that
// worker's own FIFO, a ring, with only the first in the event heap. All three are
// stamped from one (time, schedule order) key and the loop runs the
// earlier of the two heaps' tops, so the order is the one a single heap
// of everything would give; that single heap, with the stale timer entries
// it discarded as they surfaced, lives on in sim/queue_test.go as the
// reference the loop is compared with over a thousand random schedules.
//
// A write to the bookstore allocates only what the store keeps. Every
// replica applies every action, so a byte an action allocates is paid once
// per replica. An Item or a Customer row is held as an immutable body —
// title, author, subject, name, address, discount: the columns no action
// writes — and a head of the columns actions do write (cost, stock, related
// items, images and sweep tag; login times, balance and year-to-date
// payment) beside a pointer to the body: 88 bytes for an item, 48 for a
// customer. The tables hold heads and a write never touches the body. The first write to a head after a capture
// (a snapshot, a delta, a clone or restore, a migration export or import)
// stores a copy of it, and later writes edit that copy in place until the
// next capture: the table knows which heads it stored since (tpcw's
// table.edit), and checkpoints, deltas and migration payloads share the
// others as they share pages. Columns that are a function of the ID — a
// customer's user name and password, an order's authorization ID — are
// derived, not stored. The store keeps rows and hands out views: a stored
// row keeps each instant as an 8-byte stamp (Unix nanoseconds, spanning the
// years 1678 to 2262; the zero time has a stamp of its own) where a
// time.Time takes 24, and pairs its int32 columns so none pads alone — a
// customer is 160 bytes, an order 192, a cart 40. The exported Item,
// Customer, Order and Cart are views GetBook, GetCustomerByID, GetOrder and
// GetCart assemble, with their instants in UTC; the web tier's reads look
// rows up in place (BookAuthor, MostRecentOrder) and assemble none. The
// population is loaded in bulk. Text its rows repeat is looked up by the
// number drawn for it: 72,000 addresses hold 999 streets of each kind and
// 500 cities, 10,000 items 100 publishers and 36,000 customers some 8,400
// last names, each a slot of a table indexed by its draws and spelled the
// first time it is drawn. Text of a row's own — names, e-mails, phones,
// zips, titles — is spelled into 64 KiB arena chunks, each value a
// substring of its chunk, so the paper population's 220,000 such strings
// take some 35 allocations; a chunk lives while any of its strings does.
// Dates are whole days and years from one midnight. The best-sellers
// window is built from the orders it keeps, the last 3,333: the older ones
// are stored and indexed by customer and never enter it. The rows a write
// keeps — customers, addresses, orders and their lines, and the head
// copies — are carved from slabs of the store's own, under the rule the
// votes follow:
// a store never writes a row once a capture or another store can hold it,
// and Clone and Restore never hand a store another's slabs. An array lives
// while one row in it does, so a cart's lines, replaced on every update
// while their neighbours live on, are allocated per write.
//
// The read path scales out independently of the write quorums:
// webtier.Config.Readers boots learner-backed read-only servers per
// group — full application servers whose paxos engine is a non-voting
// learner (paxos.Config.Learner): it receives the voters' learn stream
// and checkpoints and applies the ordered log, but never votes, proposes
// or counts toward quorum, so added readers cost no WAL-quorum latency.
// Bounded staleness and read-your-writes ride on the applied index:
// every write ack carries its commit index, the proxy folds it into a
// per-session high-water mark and attaches it as a fence on the
// session's subsequent reads, and the serving replica runs a fenced read
// only once lastApplied reaches the fence (core.Replica.ReadAt — bounded
// wait, then a TooStale reply the proxy transparently re-serves on the
// voters). Read dispatch balances per-request across voters + readers by
// least outstanding requests (rotation breaks ties) instead of pinning
// by client hash, so a hot client's reads spread over the read-serving
// set and queues drain toward the nodes with headroom; writes keep hash
// affinity and go to voters only. The fence engages at every Readers
// setting — with Readers=0 the read-serving set is the group's voters,
// so a session's fenced reads spread across voting non-leader replicas
// (and keep read-your-writes on whichever trailing voter they land)
// instead of pinning to the client hash. The learner fault family — lagging
// learner (flaky links), learner severed from its group while still
// serving (OpGroupIsolate, the staleness worst case), a leader crash
// racing in-flight fences — joins the faultload DSL, staleness is
// accounted per group (GroupReport.ReadsServed/FenceWaits/StaleServes)
// with a serve-time fence-violation counter the fault suite asserts
// stays zero, and cmd/experiment -run readscale measures read actions/s
// against read-serving node count under the saturated Browsing mix, with
// the errors and quality evictions of those (failure-free) runs beside.
//
// The single-shard invariant is lifted: one logical action can span
// Paxos groups atomically, via two-phase commit whose every protocol
// step is an ordered log record (core/txn.go). A participant group
// orders a core.TxnPrepare carrying its branch — applying it validates
// against local state (core.TxnStager), stages the action without
// executing it, and blocks the branch's conflict keys
// (core.Replica.TxnBlocksInt) so the tier boundary holds conflicting
// writes until the outcome's log position decides what the branch
// observes. The coordinator Paxos-commits a core.TxnDecision in its own
// home group BEFORE replying or releasing the outcome; the record is
// first-writer-wins, so a presumed-abort inquiry racing the real commit
// resolves to whichever ordered first and every reader agrees.
// Participants then order a core.TxnOutcome — a commit executes the
// staged branch at the outcome record's position, an abort discards it,
// and either way duplicates degrade to ordered no-ops. All of it is
// replayable and checkpoint-carried (the prepared set, terminal set and
// decision map travel with the application snapshot), recovery is
// record-driven, never memory-driven: a stranded participant inquires
// at the home group after a grace (recording a presumed abort if no
// decision exists), and one hook, core.Config.OnTxnStaged, arms its
// resolution loop for every branch that enters a replica's prepared set —
// by a prepare record, live or replayed, or by a checkpoint restored
// from disk or installed from a peer. One coordinator drives the
// records: the web tier's, event-style (webtier/txn.go), behind the
// first real multi-shard workloads — cross-session gift orders
// (tpcw.GiftAction) debiting one group and delivering on another, admin
// inventory sweeps repricing item sets across groups. A handler splits
// its write into one share per group and hands the shares to the
// coordinator's one entry, which alone decides that a write whose only
// share is on its own group takes the plain submit path and orders no
// transaction record. No experiment or workload draws such a write:
// webtier.TestTxnFastPathOrdersNoRecords is what exercises it. The txn fault
// scenarios (coordinator crash, coordinator–participant partition,
// participant crash holding a prepared branch) run under cmd/experiment
// -run txn with per-group commit/abort/blocked-time counters
// (GroupReport.TxnCommits/TxnAborts/TxnBlockedSec) and an
// exactly-once audit asserting nothing is lost, duplicated or
// half-applied (a violation fails the command).
//
// The dependability benchmark covers the sharded deployment too: a
// composable faultload DSL (exp.Faultload — victim selectors × schedule)
// carries the paper's §5.4–5.6 faultloads as presets (exp.OneCrash,
// exp.TwoCrashes, exp.DelayedRecovery) and adds sharded scenarios
// (one member of every group, rolling crashes, whole-group outage until
// manual recovery), with per-group + aggregate availability,
// performability and recovery-window reports (RunResult.PerGroup,
// cmd/experiment -run sharded | sharded-recovery).
//
// Faultloads reach beyond crashes — the paper's "other fault types"
// future work: OpPartition/OpHeal schedule network partitions (symmetric
// or asymmetric one-way loss, victims chosen by the selectors plus the
// late-bound Leader(group) and quorum-preserving Minority(group)), and
// OpDiskSlow/OpDiskRestore degrade a victim's disk live by a factor (the
// failing-disk straggler that drags group commit and checkpoints without
// tripping crash detection). Every link fault — sever, loss or delay — is
// opened on one link-fault table (internal/netfault) that the simulator
// reads loop-confined and livenet under a lock, so the same scenarios run
// on real goroutines. Opening a fault returns the handle that heals
// exactly it, and open faults compose: a link is severed while any of them
// severs it, and runs at the worst loss and the worst delay among them. A
// fault cut from the rest of the cluster persists onto a node added while
// it is open (live rebalance), which joins the healthy side instead of
// straddling the split. A drive's slowdowns and a server's gray failures
// compose the same way: the worst open factor runs, and each heal lifts
// only its own. The standard scenarios — leader
// isolation, minority split, whole-group isolation (the proxy↔group path
// severed), asymmetric one-way loss, slow-disk straggler — report
// partition/degradation windows beside the recovery windows
// (metrics.FaultWindow, totalled per group and kind in
// GroupReport.Windows; cmd/experiment -run partition | slowdisk), and -run partition-recovery
// reports detection/failover and post-heal reabsorption times. Between
// the severed and the healthy link sits the flaky one:
// OpLinkLoss/OpLinkRestore (the hunt samples them) schedule probabilistic
// per-link message loss (a netfault.Fault with a Loss rate) — the gray
// network failure that never trips partition detection — reported as
// linkloss windows.
//
// The gray-failure family completes the spectrum: OpGrayFail/OpGrayRestore
// put a victim into the probe-healthy, work-sick mode — it keeps acking
// liveness pings and web-tier probes while real requests error (Factor
// < 1, an error rate) or slow-walk (Factor ≥ 1, a service-time
// multiplier); on livenet the same op drops value-bearing inbound
// traffic at the transport while sub-128-byte control messages pass.
// OpLinkDelay/OpLinkDelayRestore inflate per-link latency (a
// netfault.Fault with a Delay factor) — the congested path where
// nothing drops and nothing severs, invisible to both loss and partition
// detection. The Flap generator expands any window-opening op into
// alternating inject/restore trains (period × duty), giving the classic
// route-flap scenario in one line. Because probe-timeout detection is
// blind to all of these, the proxy additionally grades each server on
// served-traffic quality — per-server error/latency EWMAs — and evicts
// (with quarantine) on quality alone; a gray member costs a few seconds
// of degraded service instead of a whole window (ProxyStats.
// QualityEvictions; the gray scenarios run under cmd/experiment -run
// gray, with grayfail/linkdelay windows and staleness folded into
// per-group accuracy by metrics.WeightedGroupAccuracy). What a window
// fault is — its two ops and their names, report kind, default factor,
// flags, label and mechanism — is one row of exp.WindowFaults.
//
// On top of the DSL sits a generative adversarial fault search
// (internal/exp/search, cmd/experiment -run hunt): it samples random
// schedules from the grammar — weighted op mix, random selectors, times
// and factors, severing windows kept quorum-safe by construction —
// judges every run with failure oracles (fence violations, an
// availability floor, a write-wedge oracle that demands throughput
// re-sustain half the failure-free baseline after the last fault
// clears, and a transaction-atomicity oracle — on sharded deployments
// the hunt drives cross-shard transactions beside the RBE load by
// default and fails any run that loses, duplicates or half-applies
// one; the sampler also draws compound 2PC-targeted schedules that
// anchor correlated coordinator/participant crashes and partitions
// inside one prepare→commit window), delta-debugs each failure to a
// minimal event set and time
// window (search.Shrink), and pins survivors as reproducible JSON
// counterexamples under internal/exp/testdata/pinned/ — auto-replayed by
// a regression test, so every bug the search ever caught stays caught.
// The harness is itself acceptance-tested against a known-bad engine: on
// the build of internal/mutants' stale-leader-rejoin mutant (a known bug is
// an edit passed to go test -overlay, never a switch in production code),
// the hunt finds the write-wedge, shrinks the schedule and pins a case that
// reproduces the wedge there and passes on the real build; that package's
// kill matrix says which check catches which known bug. CI runs a -short
// smoke per PR and the full hunt and matrix nightly, uploading their finds.
//
// The codebase enforces its own invariants statically: internal/analysis
// is a stdlib-only go/analysis-style suite run by cmd/analyze over
// package patterns (go run ./cmd/analyze ./...), wired into CI. Four passes guard
// the bug classes this repo actually shipped: detorder flags map
// iteration that reaches an order-sensitive sink (message sends,
// proposals, WAL appends, fold-order-dependent results) inside the
// deterministic packages — the exact shape of the leader-election
// replay-divergence bug — with internal/detsort.Keys as the sanctioned
// collect-and-sort idiom; walltime forbids wall-clock time and global
// math/rand there (virtual clocks and seeded internal/xrand streams
// only); walpath confines env.Storage.Append/AppendBatch to the
// group-commit walWriter in paxos/wal.go and proves every storage
// implementation completes its done callback on all control-flow paths;
// guarded checks `// guarded by <mu>` field annotations against the locks
// actually taken. Deliberate exceptions are annotated in place —
// //detorder:sorted, //walltime:live, //walpath:direct, //walpath:drops,
// //guarded:held — each with a reason, so the suite stays at zero
// findings and every suppression is a documented decision.
//
// The root package holds only this documentation; the implementation
// lives under internal/. Every experiment — the paper's tables and
// figures and the extensions above — is one entry of one table
// (internal/exp/table.go) that cmd/experiment -run NAME [-short] runs. An
// entry's report is a list of typed cells — each printed number, or the
// words printed in its place, with the entry, table, row and column it
// stands at — plus the layout that prints them: line templates the cells
// fill, tables whose columns are each stated once as a header and a verb,
// and the WIPS histogram. One renderer (internal/exp/render.go) writes
// every report, and a design rule keeps any other code in exp from
// writing one; tests read the cells, not the RunResult fields behind
// them. This file quotes none of the numbers: what the short sizes print
// is committed as internal/exp/testdata/golden/all-short.txt and compared
// byte for byte by a tier-1 test, so the numbers live where a test
// regenerates them. bench/ is the end-to-end benchmark BENCHMARK.json
// declares (bench/README.md). ROADMAP.md lists what is open and how to run
// each test suite; CHANGES.md is the per-PR log.
package robuststore

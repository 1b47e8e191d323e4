package exp

import (
	"fmt"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/webtier"
)

// This file defines the composable faultload DSL: a Faultload is a
// schedule of fault events, each pairing a victim selector with an
// operation and a time on the paper's x-axis. The paper's closed §5.4–5.6
// faultloads (NoFault, OneCrash, TwoCrashes, DelayedRecovery) are presets
// over the single-group deployment, and the same vocabulary scales them out to the
// sharded web tier: one member of one group, one member of every group
// (simultaneous or rolling), or a whole group down until manual recovery.
//
// Beyond crashes — the paper's "other fault types" future work — the DSL
// schedules correlated fault operations: network partitions
// (OpPartition/OpHeal, symmetric or one-way, composable via handles),
// disk degradations (OpDiskSlow/OpDiskRestore, the failing-disk straggler
// that drags the group-commit pipeline and checkpoint writes), flaky
// links (OpLinkLoss/OpLinkRestore, probabilistic per-link message loss —
// the gray network failure that never trips partition detection),
// gray-failed processes (OpGrayFail/OpGrayRestore, a member that acks
// every probe while erroring or slow-walking real requests), and link
// latency inflation (OpLinkDelay/OpLinkDelayRestore, a congested path
// where everything arrives late). Flap expands any window-opening op into
// an alternating inject/restore train (route flapping and its cousins).

// FaultOp is what a fault event does to its victims.
type FaultOp int

// The fault operations.
const (
	// OpCrash kills the victims abruptly (OS-level kill, §5.1); the
	// watchdog restarts them autonomously.
	OpCrash FaultOp = iota

	// OpCrashNoRestart kills the victims with their watchdog disabled:
	// they stay down until an OpRecover event (the manual recovery of
	// §5.6).
	OpCrashNoRestart

	// OpRecover restarts the victims by operator intervention, counting
	// against the autonomy measure.
	OpRecover

	// OpPartition isolates the victims from the rest of the cluster —
	// the proxy included, so isolating a whole group severs the
	// proxy↔group path. The event's Dir selects symmetric isolation or
	// asymmetric one-way loss. Partitions opened under different
	// selectors compose; OpHeal with the same selector heals exactly this
	// one.
	OpPartition

	// OpHeal removes the partition opened by the OpPartition event with
	// the same selector (the network repairs itself; no operator action,
	// so it does not count against autonomy).
	OpHeal

	// OpDiskSlow degrades the victims' disks live by the event's Factor:
	// seek time multiplies by it, bandwidth divides by it — a failing
	// drive in constant retry. The degradation survives crash/restart of
	// the victim (it belongs to the hardware) until OpDiskRestore.
	OpDiskSlow

	// OpDiskRestore returns the victims' disks to their configured
	// performance (the drive was swapped).
	OpDiskRestore

	// OpLinkLoss makes every link between the victims and the rest of the
	// cluster flaky: each message crossing it is dropped with probability
	// Factor (0 → DefaultLossRate), in the directions Dir selects. Unlike
	// OpPartition nothing is severed — traffic limps through retries and
	// timeouts, the gray failure partition detection cannot see. A second
	// OpLinkLoss on the same selector supersedes the first.
	OpLinkLoss

	// OpLinkRestore clears the loss opened by the OpLinkLoss event with
	// the same selector (the flaky path stabilizes on its own; no operator
	// action, so it does not count against autonomy).
	OpLinkRestore

	// OpGroupIsolate severs the victims from the other members of their
	// own Paxos group — voters and readers — while their proxy path and
	// every other link stay up. Unlike OpPartition the victims keep
	// serving clients: a learner reader cut off this way lags
	// arbitrarily far behind the acked writes, the staleness worst case
	// the read fences must bound. A second OpGroupIsolate on the same
	// selector supersedes the first.
	OpGroupIsolate

	// OpGroupReconnect restores the group links severed by the
	// OpGroupIsolate event with the same selector.
	OpGroupReconnect

	// OpGrayFail puts the victims into gray-failure mode: they keep
	// acking health probes and consensus pings while their real request
	// service suffers — Factor < 1 errors that fraction of requests fast
	// (0 → DefaultGrayRate), Factor ≥ 1 slow-walks service times by that
	// multiplier. The probe path is untouched by design, so probe-based
	// eviction alone never catches it. A second OpGrayFail on the same
	// selector supersedes the first.
	OpGrayFail

	// OpGrayRestore returns the victims of the OpGrayFail event with the
	// same selector to healthy request service.
	OpGrayRestore

	// OpLinkDelay inflates the latency of every link between the victims
	// and the rest of the cluster by Factor (0 → DefaultDelayFactor), in
	// the directions Dir selects. Every message still arrives — nothing
	// for loss detection or partition detection to see — it just crawls,
	// stretching quorum round-trips and probe replies alike. A second
	// OpLinkDelay on the same selector supersedes the first.
	OpLinkDelay

	// OpLinkDelayRestore clears the latency inflation opened by the
	// OpLinkDelay event with the same selector.
	OpLinkDelayRestore
)

// String implements fmt.Stringer: the names pinned schedules are written
// in (search.PinnedEvent), the window ops' from their table rows.
func (o FaultOp) String() string {
	switch o {
	case OpCrash:
		return "crash"
	case OpCrashNoRestart:
		return "crash-no-restart"
	case OpRecover:
		return "recover"
	}
	if wf, ok := Opens(o); ok {
		return wf.OpenName
	}
	if wf, ok := Closes(o); ok {
		return wf.CloseName
	}
	return "unknown"
}

// Ops returns every fault op: the crash ops, then each window fault's
// opener and closer.
func Ops() []FaultOp {
	ops := []FaultOp{OpCrash, OpCrashNoRestart, OpRecover}
	for _, wf := range WindowFaults {
		ops = append(ops, wf.Open, wf.Close)
	}
	return ops
}

// WindowFault is one row of the window-fault table: everything this
// package and the hunt (internal/exp/search) know about a fault kind that
// opens a window on its victims and closes it again. A new kind is a row
// here, whose inject is one call on webtier.Cluster that returns the
// fault's heal, and its weight in the hunt's mix.
type WindowFault struct {
	Open, Close         FaultOp
	OpenName, CloseName string // FaultOp.String of the two ops

	// Kind is the metrics.FaultWindow kind the windows report under (a
	// group isolation reports as a partition).
	Kind string

	// DefaultFactor is the Factor an event runs with when it leaves its
	// own zero; zero for a kind that takes none.
	DefaultFactor float64

	Directed  bool // honours FaultEvent.Dir
	LateBinds bool // a Leader selector binds to the leader at fire time, not to the fallback victim
	Severs    bool // denies the victims' service outright, so the hunt keeps it quorum-safe

	// PerVictim has inject called once per victim, each alone, so that one
	// fault counts per victim (Cluster.Faults, autonomy); otherwise one
	// call — one fault — covers the event.
	PerVictim bool

	// factor states how the report prints a window's factor: the verb and
	// the value it fills; nil for a kind that takes none.
	factor func(factor float64) (verb string, v float64)

	// inject puts the fault on the victims and returns what lifts it.
	inject func(l *ledger, ev resolvedEvent, victims []int) (lift func())
}

// injectOn injects the fault on the victims, per event or per victim, and
// returns what lifts it again.
func (wf WindowFault) injectOn(l *ledger, ev resolvedEvent, victims []int) (lift func()) {
	if !wf.PerVictim {
		return wf.inject(l, ev, victims)
	}
	var lifts []func()
	for _, v := range victims {
		lifts = append(lifts, wf.inject(l, ev, []int{v}))
	}
	return func() {
		for _, lift := range lifts {
			lift()
		}
	}
}

// WindowFaults is the table. Windows that overlap on one victim compose
// however they were selected: each inject returns the heal of exactly its
// own fault, and the link table, the disk and the gray mode run the worst
// of the faults still open (see netfault and webtier.Cluster).
var WindowFaults = []WindowFault{
	{Open: OpPartition, Close: OpHeal, OpenName: "partition", CloseName: "heal",
		Kind: "partition", Directed: true, LateBinds: true, Severs: true,
		inject: func(l *ledger, ev resolvedEvent, victims []int) func() {
			return l.cluster.FaultLinks(victims, false, netfault.Fault{Dir: ev.dir, Sever: true})
		}},
	{Open: OpDiskSlow, Close: OpDiskRestore, OpenName: "disk-slow", CloseName: "disk-restore",
		Kind: "slowdisk", DefaultFactor: DefaultSlowFactor, PerVictim: true,
		factor: func(f float64) (string, float64) { return "%gx slower", f },
		inject: func(l *ledger, ev resolvedEvent, victims []int) func() {
			return l.cluster.DegradeDisk(victims[0], ev.factor)
		}},
	{Open: OpLinkLoss, Close: OpLinkRestore, OpenName: "link-loss", CloseName: "link-restore",
		Kind: "linkloss", DefaultFactor: DefaultLossRate, Directed: true, LateBinds: true,
		factor: func(f float64) (string, float64) { return "%.0f%% loss", f * 100 },
		inject: func(l *ledger, ev resolvedEvent, victims []int) func() {
			return l.cluster.FaultLinks(victims, false, netfault.Fault{Dir: ev.dir, Loss: ev.factor})
		}},
	{Open: OpGroupIsolate, Close: OpGroupReconnect, OpenName: "group-isolate", CloseName: "group-reconnect",
		Kind: "partition", Severs: true,
		inject: func(l *ledger, _ resolvedEvent, victims []int) func() {
			return l.cluster.FaultLinks(victims, true, netfault.Fault{Sever: true})
		}},
	{Open: OpGrayFail, Close: OpGrayRestore, OpenName: "gray-fail", CloseName: "gray-restore",
		Kind: "grayfail", DefaultFactor: DefaultGrayRate, LateBinds: true, PerVictim: true,
		factor: func(f float64) (string, float64) {
			if f < 1 {
				return "%.0f%% errors", f * 100
			}
			return "%gx slow-walk", f
		},
		inject: func(l *ledger, ev resolvedEvent, victims []int) func() {
			return l.cluster.GrayFail(victims[0], ev.factor)
		}},
	{Open: OpLinkDelay, Close: OpLinkDelayRestore, OpenName: "link-delay", CloseName: "link-delay-restore",
		Kind: "linkdelay", DefaultFactor: DefaultDelayFactor, Directed: true, LateBinds: true,
		factor: func(f float64) (string, float64) { return "%gx latency", f },
		inject: func(l *ledger, ev resolvedEvent, victims []int) func() {
			return l.cluster.FaultLinks(victims, false, netfault.Fault{Dir: ev.dir, Delay: ev.factor})
		}},
}

// Opens returns the row whose window op opens, Closes the row whose window
// it closes.
func Opens(op FaultOp) (WindowFault, bool) {
	for _, wf := range WindowFaults {
		if wf.Open == op {
			return wf, true
		}
	}
	return WindowFault{}, false
}

func Closes(op FaultOp) (WindowFault, bool) {
	for _, wf := range WindowFaults {
		if wf.Close == op {
			return wf, true
		}
	}
	return WindowFault{}, false
}

// Scope selects which servers of the deployment a fault event hits.
type Scope int

// The victim scopes.
const (
	// ScopeGroupMember hits one member of one group: the victim rotation
	// slot Slot of group Group.
	ScopeGroupMember Scope = iota

	// ScopeEveryGroupMember hits one member of every group at once (the
	// rotation slot Slot of each).
	ScopeEveryGroupMember

	// ScopeWholeGroup hits every member of group Group — quorum loss for
	// that client slice until the members come back.
	ScopeWholeGroup

	// ScopeGroupLeader hits the member currently leading group Group's
	// consensus. It is late-bound: the victim is resolved when the event
	// fires (the leader is run state, not layout), falling back to the
	// rotation's slot-0 victim when no leader is established.
	ScopeGroupLeader

	// ScopeGroupMinority hits the largest minority of group Group —
	// ⌊(Servers−1)/2⌋ members starting at the rotation's slot-0 victim —
	// so the remaining majority keeps quorum. At Servers=1 the minority
	// is empty and the event is a no-op.
	ScopeGroupMinority

	// ScopeGroupReader hits learner-backed reader Slot of group Group
	// (the read-scale-out tier). Requires a deployment with Readers > 0;
	// never touches quorum — readers do not vote.
	ScopeGroupReader
)

// Selector picks victim servers from the deployment layout. Victims
// within a group follow the run's deterministic rotation ("chosen at
// random", §5.5): slot 0 is the group's first victim, slot 1 its second,
// and so on.
type Selector struct {
	Scope Scope
	Group int // group index, for ScopeGroupMember and ScopeWholeGroup
	Slot  int // victim rotation slot, for the member scopes
}

// Member selects the rotation slot's victim within one group.
func Member(group, slot int) Selector {
	return Selector{Scope: ScopeGroupMember, Group: group, Slot: slot}
}

// EveryGroup selects the rotation slot's victim in every group.
func EveryGroup(slot int) Selector {
	return Selector{Scope: ScopeEveryGroupMember, Slot: slot}
}

// WholeGroup selects every member of one group.
func WholeGroup(group int) Selector {
	return Selector{Scope: ScopeWholeGroup, Group: group}
}

// Leader selects the member leading one group's consensus at the moment
// the event fires.
func Leader(group int) Selector {
	return Selector{Scope: ScopeGroupLeader, Group: group}
}

// Minority selects the largest quorum-preserving minority of one group.
func Minority(group int) Selector {
	return Selector{Scope: ScopeGroupMinority, Group: group}
}

// FaultEvent schedules one fault operation.
type FaultEvent struct {
	// AtSec is the event time in seconds on the paper's x-axis (measured
	// from run start, ramp-up included); it scales with a shortened
	// measurement interval.
	AtSec float64

	Op     FaultOp
	Select Selector

	// Dir selects the affected direction, relative to the victims, of an op
	// whose WindowFaults row is Directed (default LinkBothWays —
	// symmetric). Ignored by every other op.
	Dir env.LinkDir

	// Factor is how hard the op degrades — a disk or latency multiple, a
	// loss or error rate; see the op — and 0 means its row's DefaultFactor.
	// Ignored by an op whose row has none.
	Factor float64
}

// factor is the Factor the event runs with: its own, or its op's default
// when it leaves Factor zero.
func (ev FaultEvent) factor() float64 {
	if ev.Factor != 0 {
		return ev.Factor
	}
	wf, _ := Opens(ev.Op)
	return wf.DefaultFactor
}

// DefaultSlowFactor is OpDiskSlow's degradation when the event leaves
// Factor zero: an 8× slower disk, the failing-but-not-dead drive whose
// group-commit flushes drag the whole phase-2 quorum.
const DefaultSlowFactor = 8

// DefaultLossRate is OpLinkLoss's drop probability when the event leaves
// Factor zero: 30% loss, well past what retries hide but short of the
// certain loss a partition would be.
const DefaultLossRate = 0.3

// DefaultGrayRate is OpGrayFail's request-error probability when the
// event leaves Factor zero: half the victim's requests fail fast while
// every probe still answers OK.
const DefaultGrayRate = 0.5

// DefaultDelayFactor is OpLinkDelay's latency multiplier when the event
// leaves Factor zero: 50× the calibrated switch latency (~120 µs → ~6 ms
// per hop), deep into quorum-round-trip pain without tripping a single
// timeout-based detector outright.
const DefaultDelayFactor = 50

// Faultload is a composable fault schedule: victim selectors × operations
// × event times.
type Faultload struct {
	Name   string
	Events []FaultEvent
}

// shifted returns the faultload with every fault event (crashes,
// partitions, heals, disk degradations) moved so the first lands at
// firstCrashSec, preserving relative spacing — the CrashAt override of
// shortened recovery-time runs. Heals shift with their partitions, so
// window widths survive the shift. Recovery events keep their absolute
// times (the §5.6 intervention stays at t=390 s).
func (f Faultload) shifted(firstCrashSec float64) Faultload {
	first := -1.0
	for _, ev := range f.Events {
		if ev.Op != OpRecover && (first < 0 || ev.AtSec < first) {
			first = ev.AtSec
		}
	}
	if first < 0 || first == firstCrashSec {
		return f
	}
	delta := firstCrashSec - first
	out := Faultload{Name: f.Name, Events: make([]FaultEvent, len(f.Events))}
	copy(out.Events, f.Events)
	for i := range out.Events {
		if out.Events[i].Op != OpRecover {
			out.Events[i].AtSec += delta
		}
	}
	return out
}

// --- The paper's faultloads -------------------------------------------

// The faultloads of §5, over the single-group deployment (victims follow
// the run's rotation, "chosen at random", §5.5).
var (
	// NoFault is the speedup/scaleup baseline, and RunConfig's default.
	NoFault = Faultload{Name: "none"}

	// OneCrash is §5.4: one crash at t=270 s, autonomous recovery.
	OneCrash = Faultload{Name: "one-crash", Events: []FaultEvent{
		{AtSec: 270, Op: OpCrash, Select: Member(0, 0)},
	}}

	// TwoCrashes is §5.5: crashes at t=240 s and t=270 s, autonomous
	// recoveries.
	TwoCrashes = Faultload{Name: "two-crashes", Events: []FaultEvent{
		{AtSec: 240, Op: OpCrash, Select: Member(0, 0)},
		{AtSec: 270, Op: OpCrash, Select: Member(0, 1)},
	}}

	// DelayedRecovery is §5.6: both crash at t=240 s; one recovers
	// autonomously, the other by operator intervention at t=390 s.
	DelayedRecovery = Faultload{Name: "delayed-recovery", Events: []FaultEvent{
		{AtSec: 240, Op: OpCrash, Select: Member(0, 0)},
		{AtSec: 240, Op: OpCrashNoRestart, Select: Member(0, 1)},
		{AtSec: 390, Op: OpRecover, Select: Member(0, 1)},
	}}
)

// --- Sharded scenarios -------------------------------------------------

// MemberEveryGroup crashes one member of every group simultaneously at
// atSec: the sharded analogue of OneCrash, where each group loses one
// replica but keeps its quorum.
func MemberEveryGroup(atSec float64) Faultload {
	return Faultload{Name: "member-every-group", Events: []FaultEvent{
		{AtSec: atSec, Op: OpCrash, Select: EveryGroup(0)},
	}}
}

// RollingMemberEveryGroup crashes one member of each group, stepSec
// apart, group by group: a rolling failure wave across the deployment.
func RollingMemberEveryGroup(shards int, startSec, stepSec float64) Faultload {
	f := Faultload{Name: "rolling-member-every-group"}
	for g := 0; g < shards; g++ {
		f.Events = append(f.Events, FaultEvent{
			AtSec:  startSec + float64(g)*stepSec,
			Op:     OpCrash,
			Select: Member(g, 0),
		})
	}
	return f
}

// GroupOutage takes a whole group down at atSec — quorum loss, so its
// client slice sees a complete outage — with manual recovery of every
// member at recoverSec.
func GroupOutage(group int, atSec, recoverSec float64) Faultload {
	return Faultload{Name: "group-outage", Events: []FaultEvent{
		{AtSec: atSec, Op: OpCrashNoRestart, Select: WholeGroup(group)},
		{AtSec: recoverSec, Op: OpRecover, Select: WholeGroup(group)},
	}}
}

// --- Correlated fault scenarios ----------------------------------------

// LeaderIsolation partitions group's current consensus leader away from
// the cluster (proxy included) at atSec and heals the network at healSec:
// the group must detect the silent leader, elect a successor and keep its
// quorum serving, then reabsorb the stale ex-leader after the heal.
func LeaderIsolation(group int, atSec, healSec float64) Faultload {
	return Faultload{Name: "leader-isolation", Events: []FaultEvent{
		{AtSec: atSec, Op: OpPartition, Select: Leader(group)},
		{AtSec: healSec, Op: OpHeal, Select: Leader(group)},
	}}
}

// MinoritySplit partitions the largest quorum-preserving minority of one
// group away at atSec, healing at healSec: the majority side keeps
// committing (agreement must hold across the split), and the isolated
// members catch back up after the heal.
func MinoritySplit(group int, atSec, healSec float64) Faultload {
	return Faultload{Name: "minority-split", Events: []FaultEvent{
		{AtSec: atSec, Op: OpPartition, Select: Minority(group)},
		{AtSec: healSec, Op: OpHeal, Select: Minority(group)},
	}}
}

// GroupIsolation partitions an entire group away from the cluster —
// severing the proxy↔group path, so its client slice sees a full outage
// with every member still running — and heals at healSec. Unlike
// GroupOutage no state is lost and no recovery replay is needed: service
// must resume at network speed.
func GroupIsolation(group int, atSec, healSec float64) Faultload {
	return Faultload{Name: "group-isolation", Events: []FaultEvent{
		{AtSec: atSec, Op: OpPartition, Select: WholeGroup(group)},
		{AtSec: healSec, Op: OpHeal, Select: WholeGroup(group)},
	}}
}

// AsymmetricLoss applies one-way loss to one member of one group (the
// rotation's slot-0 victim): from atSec to healSec its outbound messages
// vanish while inbound still arrive — the half-open link where the proxy
// keeps dispatching into a server whose replies never return.
func AsymmetricLoss(group int, atSec, healSec float64) Faultload {
	return Faultload{Name: "asymmetric-loss", Events: []FaultEvent{
		{AtSec: atSec, Op: OpPartition, Select: Member(group, 0), Dir: env.LinkOutboundOnly},
		{AtSec: healSec, Op: OpHeal, Select: Member(group, 0)},
	}}
}

// SlowDiskStraggler degrades the disk of one member of one group by
// factor (0 → DefaultSlowFactor) from atSec to restoreSec: the straggler
// drags the group-commit pipeline whenever it sits in the phase-2 quorum
// and its checkpoint writes crawl, without ever failing outright — the
// fault crash detection cannot see.
func SlowDiskStraggler(group int, factor float64, atSec, restoreSec float64) Faultload {
	return Faultload{Name: "slow-disk", Events: []FaultEvent{
		{AtSec: atSec, Op: OpDiskSlow, Select: Member(group, 0), Factor: factor},
		{AtSec: restoreSec, Op: OpDiskRestore, Select: Member(group, 0)},
	}}
}

// --- Gray-failure scenarios ---------------------------------------------

// GrayFailServer puts one member of one group (the rotation's slot-0
// victim) into gray-failure mode from atSec to restoreSec: it keeps
// acking every probe while erroring or slow-walking real requests
// (factor < 1: error rate; factor ≥ 1: service-time multiplier; 0 →
// DefaultGrayRate). Quorum is untouched — the damage is entirely to the
// traffic the prober never samples.
func GrayFailServer(group int, factor float64, atSec, restoreSec float64) Faultload {
	return Faultload{Name: "gray-fail", Events: []FaultEvent{
		{AtSec: atSec, Op: OpGrayFail, Select: Member(group, 0), Factor: factor},
		{AtSec: restoreSec, Op: OpGrayRestore, Select: Member(group, 0)},
	}}
}

// GrayLeader gray-fails the member leading one group's consensus at fire
// time: the worst-placed victim, since writes hash across voters and the
// leader additionally carries proposal traffic. The prober sees a healthy
// leader throughout; only served-traffic quality can justify eviction.
func GrayLeader(group int, factor float64, atSec, restoreSec float64) Faultload {
	return Faultload{Name: "gray-leader", Events: []FaultEvent{
		{AtSec: atSec, Op: OpGrayFail, Select: Leader(group), Factor: factor},
		{AtSec: restoreSec, Op: OpGrayRestore, Select: Leader(group)},
	}}
}

// LinkDelayStraggler inflates the latency of every link between one
// member of one group (slot-0 victim) and the rest of the cluster by
// factor (0 → DefaultDelayFactor) from atSec to restoreSec: nothing
// drops, nothing severs — quorum round-trips through the victim just
// crawl, the congested-path gray failure neither loss detection nor
// partition detection can see.
func LinkDelayStraggler(group int, factor float64, atSec, restoreSec float64) Faultload {
	return Faultload{Name: "link-delay", Events: []FaultEvent{
		{AtSec: atSec, Op: OpLinkDelay, Select: Member(group, 0), Factor: factor},
		{AtSec: restoreSec, Op: OpLinkDelayRestore, Select: Member(group, 0)},
	}}
}

// PartitionFlap expands Flap into the classic route-flap scenario: the
// slot-0 member of one group partitions and heals on a periodSec cadence
// between startSec and endSec, spending duty of each period isolated.
// Every flap forces re-detection and reabsorption — a far harder fault
// than one long partition of the same total width.
func PartitionFlap(group int, startSec, endSec, periodSec, duty float64) Faultload {
	f := Flap(OpPartition, Member(group, 0), startSec, endSec, periodSec, duty, 0)
	f.Name = "partition-flap"
	return f
}

// RestoreOf maps a window-opening fault op to the op that closes its
// window (the pairing Flap alternates between).
func RestoreOf(op FaultOp) (FaultOp, bool) {
	wf, ok := Opens(op)
	return wf.Close, ok
}

// Flap expands a fault op into an alternating inject/restore event train
// on one selector: starting at startSec, each periodSec-long period
// spends duty (0 < duty < 1) of its width under the fault and the rest
// healed, until endSec (a window still open there is closed at endSec).
// op must open a row of WindowFaults; factor rides on every injection
// event. Flapping is strictly harder than one long
// window of the same cumulative width: every cycle forces re-detection,
// re-election or re-absorption from scratch.
func Flap(op FaultOp, sel Selector, startSec, endSec, periodSec, duty, factor float64) Faultload {
	restore, ok := RestoreOf(op)
	if !ok {
		panic(fmt.Sprintf("exp: Flap of %v, which has no restore op", op))
	}
	if periodSec <= 0 || duty <= 0 || duty >= 1 {
		panic(fmt.Sprintf("exp: Flap(period=%g, duty=%g) outside (0,1) duty or non-positive period",
			periodSec, duty))
	}
	f := Faultload{Name: fmt.Sprintf("flap-%v", op)}
	for at := startSec; at < endSec; at += periodSec {
		f.Events = append(f.Events, FaultEvent{AtSec: at, Op: op, Select: sel, Factor: factor})
		off := at + periodSec*duty
		if off > endSec {
			off = endSec
		}
		f.Events = append(f.Events, FaultEvent{AtSec: off, Op: restore, Select: sel})
	}
	return f
}

// --- Resolution --------------------------------------------------------

// resolvedEvent is a fault event with its victims bound to flat server
// indices of a concrete deployment. Leader selectors stay late-bound:
// leaderOf names the group whose current leader is looked up when the
// event fires (victims then holds the fallback).
type resolvedEvent struct {
	atSec   float64
	op      FaultOp
	victims []int
	groups  []int // the victims' groups, ascending
	// sel pairs a restore with the event that opened its window: the
	// ledger files an open window under its opener and this selector.
	sel Selector
	// leaderOf is the group whose live leader supersedes victims at fire
	// time; -1 for statically resolved selectors.
	leaderOf int
	dir      env.LinkDir
	factor   float64
}

// resolve binds the faultload's selectors to flat server indices
// (webtier.Layout) for a Shards×Servers deployment. A selector naming a
// group the deployment does not have is a construction error — wrapping it
// around would silently crash a second member of some other group and
// misreport the scenario — so it panics.
func (f Faultload) resolve(cfg RunConfig) []resolvedEvent {
	lay := webtier.Layout{Shards: cfg.Shards, Servers: cfg.Servers, Readers: cfg.Readers}
	// victim is group g's rotation victim of the given slot.
	victim := func(g, slot int) int {
		v := pickVictimsInGroup(cfg, g)
		return lay.Voter(g, v[slot%len(v)])
	}
	out := make([]resolvedEvent, 0, len(f.Events))
	for _, ev := range f.Events {
		re := resolvedEvent{
			atSec:    ev.AtSec,
			op:       ev.Op,
			sel:      ev.Select,
			leaderOf: -1,
			dir:      ev.Dir,
			factor:   ev.factor(),
		}
		sel := ev.Select
		if sel.Scope == ScopeEveryGroupMember {
			for g := 0; g < cfg.Shards; g++ {
				re.victims = append(re.victims, victim(g, sel.Slot))
				re.groups = append(re.groups, g)
			}
			out = append(out, re)
			continue
		}
		g := sel.Group
		if g < 0 || g >= cfg.Shards {
			panic(fmt.Sprintf("exp: faultload %q selects group %d of a %d-shard deployment",
				f.Name, g, cfg.Shards))
		}
		re.groups = []int{g}
		switch sel.Scope {
		case ScopeGroupMember:
			re.victims = []int{victim(g, sel.Slot)}
		case ScopeWholeGroup:
			for m := 0; m < cfg.Servers; m++ {
				re.victims = append(re.victims, lay.Voter(g, m))
			}
		case ScopeGroupLeader:
			// Late-bound: the leader is run state. The rotation's slot-0
			// victim is the fallback when no leader is established at
			// fire time.
			re.leaderOf = g
			re.victims = []int{victim(g, 0)}
		case ScopeGroupMinority:
			first := pickVictimsInGroup(cfg, g)[0]
			for i := 0; i < (cfg.Servers-1)/2; i++ { // largest quorum-preserving minority
				re.victims = append(re.victims, lay.Voter(g, (first+i)%cfg.Servers))
			}
		case ScopeGroupReader:
			if cfg.Readers <= 0 {
				panic(fmt.Sprintf("exp: faultload %q selects a reader of a deployment with Readers=0",
					f.Name))
			}
			re.victims = []int{lay.Reader(g, sel.Slot%cfg.Readers)}
		}
		out = append(out, re)
	}
	return out
}

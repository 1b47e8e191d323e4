package exp

import (
	"reflect"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/rbe"
)

// presetCfg is a shortened run of one of the paper's faultloads.
func presetCfg(fault Faultload) RunConfig {
	return RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fault, Browsers: 200, Measure: 90 * time.Second,
		CrashAt: 60, Seed: 5,
	}
}

// TestPaperPresetsCrashAndRecover: each of the paper's faultloads, as the
// preset it now is, crashes its victims and sees them recover in a
// shortened single-group run.
func TestPaperPresetsCrashAndRecover(t *testing.T) {
	for _, fault := range []Faultload{OneCrash, TwoCrashes, DelayedRecovery} {
		fault := fault
		t.Run(fault.Name, func(t *testing.T) {
			crashes := 0
			for _, ev := range fault.Events {
				if ev.Op != OpRecover {
					crashes++
				}
			}
			r := Run(presetCfg(fault))
			if len(r.CrashSec) != crashes || len(r.RecoverySec) == 0 {
				t.Fatalf("%d crashes scheduled: crashed at %v, recovered at %v", crashes, r.CrashSec, r.RecoverySec)
			}
		})
	}
}

func TestPickVictimsDegenerateGroup(t *testing.T) {
	// Servers=1 used to divide by zero; the lone member is every victim.
	for seed := uint64(0); seed < 5; seed++ {
		v := pickVictimsInGroup(RunConfig{Seed: seed, Servers: 1, Profile: rbe.Shopping}, 0)
		if v[0] != 0 || v[1] != 0 {
			t.Fatalf("Servers=1 victims = %v, want [0 0]", v)
		}
	}
	// Servers=2 still yields distinct victims.
	for seed := uint64(0); seed < 10; seed++ {
		v := pickVictimsInGroup(RunConfig{Seed: seed, Servers: 2, Profile: rbe.Ordering}, 0)
		if v[0] == v[1] || v[0] >= 2 || v[1] >= 2 {
			t.Fatalf("Servers=2 victims = %v", v)
		}
	}
}

func TestPickVictimsPerGroupMatchesLegacyAtGroupZero(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		cfg := RunConfig{Seed: seed, Servers: 5, Profile: rbe.Shopping}
		legacy := []int{
			int(cfg.Seed+uint64(cfg.Profile)*3) % cfg.Servers,
		}
		legacy = append(legacy, (legacy[0]+1+int(cfg.Seed)%(cfg.Servers-1))%cfg.Servers)
		if got := pickVictimsInGroup(cfg, 0); !reflect.DeepEqual(got, legacy) {
			t.Fatalf("seed %d: group-0 rotation %v != legacy %v", seed, got, legacy)
		}
	}
}

// TestSingleServerFaultRun: the degenerate one-server group survives a
// fault run end to end — the crash registers as a full outage and the
// watchdog restores service.
func TestSingleServerFaultRun(t *testing.T) {
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 1, StateMB: 300,
		Fault: OneCrash, Browsers: 100, Measure: 120 * time.Second,
		CrashAt: 60, Seed: 2,
	})
	if len(r.CrashSec) != 1 {
		t.Fatalf("crashes: %v", r.CrashSec)
	}
	if len(r.RecoverySec) != 1 {
		t.Fatalf("the lone server never recovered: %v", r.RecoverySec)
	}
	if r.Availability >= 1 {
		t.Errorf("availability = %v, a single-server crash must register as an outage", r.Availability)
	}
	if r.Autonomy != 0 {
		t.Errorf("autonomy = %v, want 0 (watchdog recovery)", r.Autonomy)
	}
}

func TestFaultloadShifted(t *testing.T) {
	fl := DelayedRecovery.shifted(90)
	var crashAt []float64
	var recoverAt []float64
	for _, ev := range fl.Events {
		if ev.Op == OpRecover {
			recoverAt = append(recoverAt, ev.AtSec)
		} else {
			crashAt = append(crashAt, ev.AtSec)
		}
	}
	if len(crashAt) != 2 || crashAt[0] != 90 || crashAt[1] != 90 {
		t.Errorf("shifted crashes = %v, want both at 90", crashAt)
	}
	if len(recoverAt) != 1 || recoverAt[0] != 390 {
		t.Errorf("recovery moved to %v; the §5.6 intervention stays at 390", recoverAt)
	}

	two := TwoCrashes.shifted(90)
	if two.Events[0].AtSec != 90 || two.Events[1].AtSec != 120 {
		t.Errorf("TwoCrashes shifted = %v/%v, want 90/120 (spacing preserved)",
			two.Events[0].AtSec, two.Events[1].AtSec)
	}
}

func TestFaultloadResolve(t *testing.T) {
	cfg := RunConfig{Servers: 3, Shards: 2, Seed: 1, Profile: rbe.Shopping}

	ev := MemberEveryGroup(270).resolve(cfg)
	if len(ev) != 1 || len(ev[0].victims) != 2 {
		t.Fatalf("member-every-group resolved to %+v", ev)
	}
	seen := map[int]bool{}
	for _, v := range ev[0].victims {
		g := v / cfg.Servers
		if seen[g] {
			t.Fatalf("two victims in group %d: %v", g, ev[0].victims)
		}
		seen[g] = true
	}

	whole := GroupOutage(1, 240, 390).resolve(cfg)
	if len(whole) != 2 {
		t.Fatalf("group-outage resolved to %d events", len(whole))
	}
	if got := whole[0].victims; !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Errorf("whole-group victims = %v, want group 1's members [3 4 5]", got)
	}
	if whole[1].op != OpRecover || !reflect.DeepEqual(whole[1].victims, []int{3, 4, 5}) {
		t.Errorf("recovery event = %+v", whole[1])
	}

	roll := RollingMemberEveryGroup(2, 240, 30).resolve(cfg)
	if len(roll) != 2 || roll[0].atSec != 240 || roll[1].atSec != 270 {
		t.Fatalf("rolling events = %+v", roll)
	}
	if roll[0].victims[0]/cfg.Servers != 0 || roll[1].victims[0]/cfg.Servers != 1 {
		t.Errorf("rolling wave must advance group by group: %+v", roll)
	}
}

func TestResolveRejectsOutOfRangeGroup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("resolving a group the deployment lacks must panic, not wrap")
		}
	}()
	fl := GroupOutage(3, 240, 390)
	fl.resolve(RunConfig{Servers: 3, Shards: 2, Profile: rbe.Shopping})
}

// TestCorrelatedFaultloadResolve: the new ops resolve with paired
// selector keys (heal ↔ partition, restore ↔ slow), directions, factors,
// late-bound leaders and quorum-preserving minorities.
func TestCorrelatedFaultloadResolve(t *testing.T) {
	cfg := RunConfig{Servers: 5, Shards: 2, Seed: 1, Profile: rbe.Shopping}

	li := LeaderIsolation(0, 240, 330).resolve(cfg)
	if len(li) != 2 || li[0].op != OpPartition || li[1].op != OpHeal {
		t.Fatalf("leader isolation resolved to %+v", li)
	}
	if li[0].sel != li[1].sel {
		t.Fatalf("heal not paired with its partition: %+v vs %+v", li[0].sel, li[1].sel)
	}
	if li[0].leaderOf != 0 {
		t.Fatalf("leader selector not late-bound: %+v", li[0])
	}
	if len(li[0].victims) != 1 {
		t.Fatalf("leader fallback victim missing: %+v", li[0])
	}

	ms := MinoritySplit(1, 240, 330).resolve(cfg)
	if len(ms[0].victims) != 2 { // (5-1)/2
		t.Fatalf("minority of a 5-group = %v, want 2 members", ms[0].victims)
	}
	for _, v := range ms[0].victims {
		if v/cfg.Servers != 1 {
			t.Fatalf("minority victim %d outside group 1", v)
		}
	}
	if one := MinoritySplit(0, 1, 2).resolve(RunConfig{Servers: 1, Shards: 1, Profile: rbe.Shopping}); len(one[0].victims) != 0 {
		t.Fatalf("minority of a 1-group must be empty, got %v", one[0].victims)
	}

	al := AsymmetricLoss(0, 240, 330).resolve(cfg)
	if al[0].dir != env.LinkOutboundOnly {
		t.Fatalf("asymmetric loss direction = %v", al[0].dir)
	}
	if al[1].op != OpHeal || al[1].sel != al[0].sel {
		t.Fatalf("asymmetric heal not paired: %+v", al)
	}

	sd := SlowDiskStraggler(0, 0, 240, 420).resolve(cfg)
	if sd[0].op != OpDiskSlow || sd[0].factor != DefaultSlowFactor {
		t.Fatalf("slow disk default factor not applied: %+v", sd[0])
	}
	if sd[1].op != OpDiskRestore || sd[1].sel != sd[0].sel {
		t.Fatalf("disk restore not paired: %+v", sd)
	}
	if got := SlowDiskStraggler(0, 16, 240, 420).resolve(cfg)[0].factor; got != 16 {
		t.Fatalf("explicit factor = %v, want 16", got)
	}

	gi := GroupIsolation(1, 240, 330).resolve(cfg)
	if len(gi[0].victims) != cfg.Servers {
		t.Fatalf("group isolation victims = %v", gi[0].victims)
	}

	// CrashAt shifting moves the partition and its heal together,
	// preserving the window width.
	sh := LeaderIsolation(0, 240, 330).shifted(90)
	if sh.Events[0].AtSec != 90 || sh.Events[1].AtSec != 180 {
		t.Fatalf("shifted window = %v..%v, want 90..180", sh.Events[0].AtSec, sh.Events[1].AtSec)
	}
}

// TestPartitionScenarioRun: a leader-isolation run end to end on the
// simulator — one closed partition window on the x-axis, the group's
// partitioned time accounted in its report, no crashes, availability
// intact (the quorum keeps serving), and one injected fault counted.
func TestPartitionScenarioRun(t *testing.T) {
	fl := LeaderIsolation(0, 60, 90)
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fl, Browsers: 200, Measure: 120 * time.Second, Seed: 6,
	})
	if len(r.CrashSec) != 0 {
		t.Fatalf("partition run recorded crashes: %v", r.CrashSec)
	}
	if len(r.FaultWindows) != 1 {
		t.Fatalf("fault windows = %+v, want one", r.FaultWindows)
	}
	w := r.FaultWindows[0]
	if w.Kind != "partition" || w.Group != 0 {
		t.Fatalf("window = %+v", w)
	}
	if w.ToSec <= w.FromSec {
		t.Fatalf("window never closed: %+v", w)
	}
	if want := 30.0 * 120 / 540; w.ToSec-w.FromSec < want-1 || w.ToSec-w.FromSec > want+1 {
		t.Fatalf("window width %.1f s, want ≈%.1f (scaled 30 s)", w.ToSec-w.FromSec, want)
	}
	if r.Faults != 1 {
		t.Fatalf("faults = %d, want 1", r.Faults)
	}
	g := r.PerGroup[0]
	if g.Windows["partition"].Count != 1 || g.Windows["partition"].Sec <= 0 {
		t.Fatalf("group report missed the partition window: %+v", g)
	}
	if g.Availability < 0.99 {
		t.Fatalf("leader isolation broke availability: %v (quorum should keep serving)", g.Availability)
	}
	if r.Availability < 0.99 {
		t.Fatalf("run availability = %v", r.Availability)
	}
}

// TestSlowDiskScenarioRun: the straggler-disk run — a closed slowdisk
// window, degradation time accounted per group, no crashes, full
// availability (the fault never trips crash detection).
func TestSlowDiskScenarioRun(t *testing.T) {
	fl := SlowDiskStraggler(0, 8, 60, 100)
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fl, Browsers: 200, Measure: 120 * time.Second, Seed: 6,
	})
	if len(r.FaultWindows) != 1 || r.FaultWindows[0].Kind != "slowdisk" {
		t.Fatalf("fault windows = %+v", r.FaultWindows)
	}
	if f := r.FaultWindows[0].Factor; f != 8 {
		t.Fatalf("window factor = %v, want 8", f)
	}
	g := r.PerGroup[0]
	if g.Windows["slowdisk"].Count != 1 || g.Windows["slowdisk"].Sec <= 0 {
		t.Fatalf("group report missed the degradation window: %+v", g)
	}
	if g.Crashes != 0 || r.Availability < 0.999 {
		t.Fatalf("slow disk must not crash or break availability: %+v avail=%v", g, r.Availability)
	}
}

// TestCrashOnlyRunCarriesNoFaultWindows: the crash faultloads stay free
// of the correlated-fault machinery — nil windows, zero partition /
// degradation time in every group report.
func TestCrashOnlyRunCarriesNoFaultWindows(t *testing.T) {
	r := Run(presetCfg(OneCrash))
	if r.FaultWindows != nil {
		t.Fatalf("crash-only run has fault windows: %+v", r.FaultWindows)
	}
	for _, g := range r.PerGroup {
		if g.Windows["partition"].Count != 0 || g.Windows["partition"].Sec != 0 || g.Windows["slowdisk"].Count != 0 || g.Windows["slowdisk"].Sec != 0 {
			t.Fatalf("crash-only group report carries fault windows: %+v", g)
		}
	}
}

// TestOverlappingDiskSlowWindowsCompose: two OpDiskSlow events whose
// windows overlap on the same group — and a repeat on the same selector
// — must keep their windows paired with their own restores; restoring
// one must not leave another's window open or orphaned.
func TestOverlappingDiskSlowWindowsCompose(t *testing.T) {
	fl := Faultload{Name: "overlap-slow", Events: []FaultEvent{
		{AtSec: 40, Op: OpDiskSlow, Select: Member(0, 0), Factor: 8},
		{AtSec: 50, Op: OpDiskSlow, Select: WholeGroup(0), Factor: 4},
		{AtSec: 60, Op: OpDiskSlow, Select: Member(0, 0), Factor: 12}, // supersedes the 8x event
		{AtSec: 70, Op: OpDiskRestore, Select: WholeGroup(0)},
		{AtSec: 90, Op: OpDiskRestore, Select: Member(0, 0)},
	}}
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fl, Browsers: 100, Measure: 120 * time.Second, Seed: 9,
	})
	if len(r.FaultWindows) != 3 {
		t.Fatalf("windows = %+v, want 3 (8x superseded, 4x, 12x)", r.FaultWindows)
	}
	for i, w := range r.FaultWindows {
		if w.ToSec < 0 {
			t.Fatalf("window %d never closed: %+v", i, w)
		}
		if w.Group != 0 || w.Kind != "slowdisk" {
			t.Fatalf("window %d = %+v", i, w)
		}
	}
	// The superseded 8x window closes when the 12x event replaces it;
	// the 4x whole-group window closes at its own restore, the 12x at
	// the final restore — strictly increasing close times.
	if !(r.FaultWindows[0].ToSec < r.FaultWindows[1].ToSec &&
		r.FaultWindows[1].ToSec < r.FaultWindows[2].ToSec) {
		t.Fatalf("window closes out of order: %+v", r.FaultWindows)
	}
	if g := r.PerGroup[0]; g.Windows["slowdisk"].Count != 3 || g.Windows["slowdisk"].Sec <= 0 {
		t.Fatalf("group report = %+v, want 3 degradation windows", g)
	}
}

// TestFlakyLinkResolveAndKey: OpLinkLoss resolves with the default rate
// normalized (Factor 0 runs as DefaultLossRate, an explicit rate as
// itself), and restores pair with their loss events by selector, the key
// the ledger files an open window under.
func TestFlakyLinkResolveAndKey(t *testing.T) {
	cfg := RunConfig{Servers: 3, Shards: 1, Seed: 1, Profile: rbe.Shopping}

	fl := flakyLink(0, 0, 60, 90).resolve(cfg)
	if len(fl) != 2 || fl[0].op != OpLinkLoss || fl[1].op != OpLinkRestore {
		t.Fatalf("flaky link resolved to %+v", fl)
	}
	if fl[0].factor != DefaultLossRate {
		t.Fatalf("default loss rate not applied: %+v", fl[0])
	}
	if fl[1].sel != fl[0].sel {
		t.Fatalf("restore not paired with its loss: %+v vs %+v", fl[1].sel, fl[0].sel)
	}
	if got := flakyLink(0, 0.5, 60, 90).resolve(cfg)[0].factor; got != 0.5 {
		t.Fatalf("explicit rate = %v, want 0.5", got)
	}
}

// TestFlakyLinkScenarioRun: the flaky-link run end to end on the
// simulator — one closed linkloss window carrying its rate, the loss
// time accounted in the group report, no crashes (the gray failure never
// trips crash detection), one injected fault, and the loss actually
// cleared after the restore.
func TestFlakyLinkScenarioRun(t *testing.T) {
	fl := flakyLink(0, 0.2, 60, 90)
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fl, Browsers: 200, Measure: 120 * time.Second, Seed: 6,
	})
	if len(r.CrashSec) != 0 {
		t.Fatalf("flaky-link run recorded crashes: %v", r.CrashSec)
	}
	if len(r.FaultWindows) != 1 {
		t.Fatalf("fault windows = %+v, want one", r.FaultWindows)
	}
	w := r.FaultWindows[0]
	if w.Kind != "linkloss" || w.Group != 0 {
		t.Fatalf("window = %+v", w)
	}
	if w.Factor != 0.2 {
		t.Fatalf("window rate = %v, want 0.2", w.Factor)
	}
	if w.ToSec <= w.FromSec {
		t.Fatalf("window never closed: %+v", w)
	}
	if want := 30.0 * 120 / 540; w.ToSec-w.FromSec < want-1 || w.ToSec-w.FromSec > want+1 {
		t.Fatalf("window width %.1f s, want ≈%.1f (scaled 30 s)", w.ToSec-w.FromSec, want)
	}
	if r.Faults != 1 {
		t.Fatalf("faults = %d, want 1", r.Faults)
	}
	g := r.PerGroup[0]
	if g.Windows["linkloss"].Count != 1 || g.Windows["linkloss"].Sec <= 0 {
		t.Fatalf("group report missed the loss window: %+v", g)
	}
	if g.Crashes != 0 {
		t.Fatalf("loss must not crash anyone: %+v", g)
	}
}

// TestGrayResolveAndKey: OpGrayFail and OpLinkDelay resolve with their
// defaults normalized (Factor 0 runs as the op's default, an explicit
// factor as itself), and restores pair with their openers by selector, the
// key the ledger files an open window under.
func TestGrayResolveAndKey(t *testing.T) {
	cfg := RunConfig{Servers: 3, Shards: 1, Seed: 1, Profile: rbe.Shopping}

	gf := GrayFailServer(0, 0, 60, 90).resolve(cfg)
	if len(gf) != 2 || gf[0].op != OpGrayFail || gf[1].op != OpGrayRestore {
		t.Fatalf("gray-fail resolved to %+v", gf)
	}
	if gf[0].factor != DefaultGrayRate {
		t.Fatalf("default gray rate not applied: %+v", gf[0])
	}
	if gf[1].sel != gf[0].sel {
		t.Fatalf("restore not paired with its gray-fail: %+v vs %+v", gf[1].sel, gf[0].sel)
	}
	if got := GrayFailServer(0, 20, 60, 90).resolve(cfg)[0].factor; got != 20 {
		t.Fatalf("explicit slow-walk factor = %v, want 20", got)
	}

	ld := LinkDelayStraggler(0, 0, 60, 90).resolve(cfg)
	if len(ld) != 2 || ld[0].op != OpLinkDelay || ld[1].op != OpLinkDelayRestore {
		t.Fatalf("link-delay resolved to %+v", ld)
	}
	if ld[0].factor != DefaultDelayFactor {
		t.Fatalf("default delay factor not applied: %+v", ld[0])
	}

	// GrayLeader late-binds: leaderOf names the group whose consensus
	// leader is looked up at fire time (the static victim is only the
	// fallback for a leaderless group).
	gl := GrayLeader(0, 0.5, 60, 90).resolve(cfg)
	if gl[0].leaderOf != 0 {
		t.Fatalf("gray-leader resolved to %+v, want late-bound leader", gl[0])
	}
}

// TestFlapExpansion: the Flap generator expands into alternating
// inject/restore trains — paired events on one selector, duty applied
// per period, the final restore clamped to the window end — and rejects
// senseless parameters.
func TestFlapExpansion(t *testing.T) {
	f := Flap(OpPartition, Member(0, 0), 100, 250, 60, 0.5, 0)
	// Periods at 100, 160, 220: three inject/restore pairs.
	if len(f.Events) != 6 {
		t.Fatalf("flap expanded to %d events, want 6: %+v", len(f.Events), f.Events)
	}
	for i := 0; i < len(f.Events); i += 2 {
		on, off := f.Events[i], f.Events[i+1]
		if on.Op != OpPartition || off.Op != OpHeal {
			t.Fatalf("pair %d = %v/%v, want partition/heal", i/2, on.Op, off.Op)
		}
		if on.Select != off.Select {
			t.Fatalf("pair %d spans selectors: %+v vs %+v", i/2, on.Select, off.Select)
		}
		if want := on.AtSec + 30; off.AtSec != want && off.AtSec != 250 {
			t.Fatalf("pair %d restore at %.0f, want %.0f (50%% duty)", i/2, off.AtSec, want)
		}
	}
	// The last cycle starts at 220; its 50% duty point (250) hits the
	// window end exactly — the restore must not spill past it.
	if last := f.Events[len(f.Events)-1]; last.AtSec > 250 {
		t.Fatalf("final restore at %.0f spilled past the window end", last.AtSec)
	}

	for _, bad := range []func(){
		func() { Flap(OpCrash, Member(0, 0), 0, 100, 50, 0.5, 0) },     // no restore op
		func() { Flap(OpPartition, Member(0, 0), 0, 100, 0, 0.5, 0) },  // zero period
		func() { Flap(OpPartition, Member(0, 0), 0, 100, 50, 1.5, 0) }, // duty ≥ 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Flap parameters did not panic")
				}
			}()
			bad()
		}()
	}
}

// The read-tier and flaky-link faultloads below are run only by the
// tests of this package.

// firstReader selects the first learner-backed reader of one group.
func firstReader(group int) Selector {
	return Selector{Scope: ScopeGroupReader, Group: group}
}

// laggingLearner makes every link of one group's first learner-backed
// reader flaky (rate 0 → DefaultLossRate) from atSec to healSec: the
// reader keeps serving but falls behind the log as its learn traffic
// drops, so fenced reads landing on it must wait, and waits that exhaust
// the staleness bound fall back to the voters (TooStale). Quorum and
// write throughput are untouched — learners do not vote.
func laggingLearner(group int, rate float64, atSec, healSec float64) Faultload {
	return Faultload{Name: "lagging-learner", Events: []FaultEvent{
		{AtSec: atSec, Op: OpLinkLoss, Select: firstReader(group), Factor: rate},
		{AtSec: healSec, Op: OpLinkRestore, Select: firstReader(group)},
	}}
}

// learnerPartition severs one group's first reader from its own group —
// proxy path intact — from atSec to healSec: the reader keeps serving
// reads while its applied log freezes, so every fenced read landing on
// it must wait out the staleness bound and fall back TooStale to the
// voters, and non-fenced reads surface the bounded-staleness contract.
// After the heal it catches up off the voters' learn stream.
func learnerPartition(group int, atSec, healSec float64) Faultload {
	return Faultload{Name: "learner-partition", Events: []FaultEvent{
		{AtSec: atSec, Op: OpGroupIsolate, Select: firstReader(group)},
		{AtSec: healSec, Op: OpGroupReconnect, Select: firstReader(group)},
	}}
}

// fenceLeaderCrash kills the group's consensus leader at atSec in the
// middle of the client load: sessions holding read-your-writes fences
// from writes the dead leader acked must still see those writes — on
// whichever server their next read lands — across the election and the
// proxy's failover. The watchdog restarts the leader autonomously.
func fenceLeaderCrash(group int, atSec float64) Faultload {
	return Faultload{Name: "fence-leader-crash", Events: []FaultEvent{
		{AtSec: atSec, Op: OpCrash, Select: Leader(group)},
	}}
}

// flakyLink degrades every link between one member of one group (the
// rotation's slot-0 victim) and the rest of the cluster from atSec to
// healSec: each crossing message drops with probability rate (0 →
// DefaultLossRate). Consensus keeps limping through per-message retries —
// prepare/accept rounds stall and resume, the proxy's dispatches time out
// intermittently — without the clean failover a severed link would
// trigger.
func flakyLink(group int, rate float64, atSec, healSec float64) Faultload {
	return Faultload{Name: "flaky-link", Events: []FaultEvent{
		{AtSec: atSec, Op: OpLinkLoss, Select: Member(group, 0), Factor: rate},
		{AtSec: healSec, Op: OpLinkRestore, Select: Member(group, 0)},
	}}
}

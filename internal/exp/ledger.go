package exp

import (
	"time"

	"robuststore/internal/metrics"
	"robuststore/internal/webtier"
)

// ledger is one run's fault record: it schedules the faultload on the
// cluster, keeps what happened — scheduled crashes and the recoveries that
// answered them, the fault windows opened and closed under their selector,
// the operator's recovery as it fired — and answers, for one group or the
// whole deployment, which interval of the measurement the scope spent
// under fault (window). collect derives every performability figure from
// that one answer.
type ledger struct {
	cluster *webtier.Cluster // what the faults act on
	t0      time.Time        // the run's time origin (the paper's x = 0)

	crashes    []crashRecord
	autonomous bool      // some crash left its victim to the watchdog
	operatorAt time.Time // the operator's first manual recovery, as it fired; zero: none

	// windows lists every window fault in opening order, one entry per
	// affected group; open holds, under its opener and selector, what lifts
	// each one still open from its victims and which entries it wrote, so
	// that the restore with the same selector clears exactly them and
	// re-firing a selector supersedes its open event.
	windows []metrics.FaultWindow
	open    map[windowKey]openWindow
}

// crashRecord is one scheduled crash of one server.
type crashRecord struct {
	server, group int
	at            time.Time
	recovered     time.Time // the server's first recovery after at; zero: it never came back
}

type windowKey struct {
	opener FaultOp
	sel    Selector
}

type openWindow struct {
	lift func()
	wins []int // indices into ledger.windows
}

func newLedger() *ledger {
	return &ledger{open: map[windowKey]openWindow{}}
}

// sec is t on the run's x-axis.
func (l *ledger) sec(t time.Time) float64 { return t.Sub(l.t0).Seconds() }

// schedule arms one resolved fault event to fire at t.
func (l *ledger) schedule(ev resolvedEvent, t time.Time) {
	c, s := l.cluster, l.cluster.Sim()
	wf, opens := Opens(ev.op)
	closed, closes := Closes(ev.op)
	switch {
	case ev.op == OpCrash || ev.op == OpCrashNoRestart:
		for _, v := range ev.victims {
			l.crash(v, c.GroupOfServer(v), t, ev.op == OpCrash)
		}
		s.At(t, func() {
			for _, v := range ev.victims {
				if ev.op == OpCrashNoRestart {
					c.SetAutoRestart(v, false)
				}
				c.Crash(v)
			}
		})
	case ev.op == OpRecover:
		s.At(t, func() {
			if l.operatorAt.IsZero() {
				l.operatorAt = s.Now()
			}
			for _, v := range ev.victims {
				c.ManualRecover(v)
			}
		})
	case opens:
		s.At(t, func() {
			victims := ev.victims
			if wf.LateBinds && ev.leaderOf >= 0 {
				// Late binding: hit whoever leads the group now; the
				// rotation victim is the no-leader fallback.
				if lead := c.LeaderOf(ev.leaderOf); lead >= 0 {
					victims = []int{lead}
				}
			}
			if len(victims) > 0 { // empty: e.g. the minority of a 1-server group
				l.openWindow(wf, ev, victims, s.Now())
			}
		})
	case closes:
		s.At(t, func() { l.closeWindow(closed, ev, s.Now()) })
	}
}

// crash records a crash of server, of group, scheduled for at; autonomous
// says its watchdog stays on.
func (l *ledger) crash(server, group int, at time.Time, autonomous bool) {
	l.crashes = append(l.crashes, crashRecord{server: server, group: group, at: at})
	l.autonomous = l.autonomous || autonomous
}

// recovered is the cluster's OnRecovered: every crash of the server before
// at that no earlier recovery answered takes this one.
func (l *ledger) recovered(server int, at time.Time) {
	for i := range l.crashes {
		if c := &l.crashes[i]; c.server == server && c.recovered.IsZero() && at.After(c.at) {
			c.recovered = at
		}
	}
}

// openWindow injects wf on the victims at time at and opens one window per
// group of the event, superseding the event still open under the same
// opener and selector.
func (l *ledger) openWindow(wf WindowFault, ev resolvedEvent, victims []int, at time.Time) {
	l.closeWindow(wf, ev, at)
	ow := openWindow{lift: wf.injectOn(l, ev, victims)}
	for _, g := range ev.groups {
		ow.wins = append(ow.wins, len(l.windows))
		l.windows = append(l.windows, metrics.FaultWindow{
			Kind:    wf.Kind,
			Group:   g,
			Dir:     ev.dir.String(),
			Factor:  ev.factor,
			FromSec: l.sec(at),
			ToSec:   -1,
		})
	}
	l.open[windowKey{wf.Open, ev.sel}] = ow
}

// closeWindow lifts, at time at, the wf event open under ev's selector and
// closes its windows; with none open it does nothing.
func (l *ledger) closeWindow(wf WindowFault, ev resolvedEvent, at time.Time) {
	key := windowKey{wf.Open, ev.sel}
	ow, ok := l.open[key]
	if !ok {
		return
	}
	ow.lift()
	for _, i := range ow.wins {
		l.windows[i].ToSec = l.sec(at)
	}
	delete(l.open, key)
}

// window answers for a scope — group g, or the deployment when g < 0 —
// which whole-second interval of the measurement [mStart, mEnd) it spent
// under fault: from its earliest crash to its last matched recovery (to
// mEnd when no victim came back) or, crash-free, the span of its fault
// windows (one never closed runs to mEnd). ok is false when the scope saw
// no fault or the interval misses the measurement.
func (l *ledger) window(g, mStart, mEnd int) (w metrics.Window, ok bool) {
	from, to := -1.0, -1.0
	for _, c := range l.crashes {
		if g >= 0 && c.group != g {
			continue
		}
		if s := l.sec(c.at); from < 0 || s < from {
			from = s
		}
		if !c.recovered.IsZero() {
			to = max(to, l.sec(c.recovered))
		}
	}
	if from < 0 {
		for _, fw := range l.windows {
			if g >= 0 && fw.Group != g {
				continue
			}
			if from < 0 || fw.FromSec < from {
				from = fw.FromSec
			}
			end := fw.ToSec
			if end < 0 {
				end = float64(mEnd)
			}
			to = max(to, end)
		}
	}
	if from < 0 {
		return w, false
	}
	if to < 0 {
		to = float64(mEnd)
	}
	w = metrics.Window{From: max(int(from), mStart), To: min(int(to), mEnd)}
	return w, int(from) < mEnd && int(to) > mStart && int(to) > int(from)
}

// tally fills in the group report's share of the ledger: its crashes, the
// recoveries that answered them with their mean duration, and per kind the
// count and seconds of its fault windows, one still open running to endSec.
func (l *ledger) tally(gr *metrics.GroupReport, endSec float64) {
	var durSum float64
	for _, c := range l.crashes {
		if c.group != gr.Group {
			continue
		}
		gr.Crashes++
		if !c.recovered.IsZero() {
			gr.Recoveries++
			durSum += l.sec(c.recovered) - l.sec(c.at)
		}
	}
	if gr.Recoveries > 0 {
		gr.MeanRecoverySec = durSum / float64(gr.Recoveries)
	}
	for _, fw := range l.windows {
		if fw.Group != gr.Group {
			continue
		}
		to := fw.ToSec
		if to < 0 {
			to = endSec
		}
		if gr.Windows == nil {
			gr.Windows = map[string]metrics.WindowTotal{}
		}
		w := gr.Windows[fw.Kind]
		gr.Windows[fw.Kind] = metrics.WindowTotal{Count: w.Count + 1, Sec: w.Sec + (to - fw.FromSec)}
	}
}

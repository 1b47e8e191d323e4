package paxos

// AdmissionState is the proposer's current write-admission grade
// (rockyardkv write_controller idiom: graded slowdown/stop triggers keyed
// on backlog depth). The controller watches the local command queue — the
// commands waiting behind the MaxInFlight window — so the layer above
// (internal/webtier) can shed or delay writes before they reach the
// retry-timeout cliff: overload then degrades to queueing latency instead
// of timeouts.
type AdmissionState int

const (
	// AdmissionClear admits writes at full rate.
	AdmissionClear AdmissionState = iota

	// AdmissionSlowdown signals that the backlog passed the slowdown
	// trigger: callers should pace new writes (the web tier stretches
	// its submit path) but nothing is refused.
	AdmissionSlowdown

	// AdmissionStop signals that the backlog passed the stop trigger:
	// callers must hold new writes until the state clears.
	AdmissionStop
)

// String implements fmt.Stringer.
func (s AdmissionState) String() string {
	switch s {
	case AdmissionClear:
		return "clear"
	case AdmissionSlowdown:
		return "slowdown"
	case AdmissionStop:
		return "stop"
	default:
		return "unknown"
	}
}

// admissionController grades queue pressure with hysteresis: a state
// escalates as soon as a trigger is crossed but de-escalates only once
// the backlog falls below half that trigger, so the grade does not
// flap at the threshold while the queue oscillates around it. Whichever
// trigger (queued commands or queued bytes) fires first wins.
type admissionController struct {
	slowCmds, stopCmds   int
	slowBytes, stopBytes int64
	state                AdmissionState
}

// admissionCmdSize is the command size the byte triggers assume.
const admissionCmdSize = 128

// newAdmissionController derives the triggers from the proposer window
// W = MaxInFlight × MaxBatchCmds, the number of commands the pipeline
// absorbs per round trip: slowdown at 8·W queued commands, stop at 32·W,
// and the byte triggers at those counts of admissionCmdSize bytes.
func newAdmissionController(window int) admissionController {
	a := admissionController{slowCmds: 8 * window, stopCmds: 32 * window}
	a.slowBytes = int64(a.slowCmds) * admissionCmdSize
	a.stopBytes = int64(a.stopCmds) * admissionCmdSize
	return a
}

// update re-grades from the current queue depth and bytes and reports the
// (possibly unchanged) state.
func (a *admissionController) update(cmds int, bytes int64) AdmissionState {
	stop := cmds >= a.stopCmds || bytes >= a.stopBytes
	slow := cmds >= a.slowCmds || bytes >= a.slowBytes
	switch a.state {
	case AdmissionStop:
		if cmds < a.stopCmds/2 && bytes < a.stopBytes/2 {
			if slow {
				a.state = AdmissionSlowdown
			} else {
				a.state = AdmissionClear
			}
		}
	case AdmissionSlowdown:
		if stop {
			a.state = AdmissionStop
		} else if cmds < a.slowCmds/2 && bytes < a.slowBytes/2 {
			a.state = AdmissionClear
		}
	default:
		if stop {
			a.state = AdmissionStop
		} else if slow {
			a.state = AdmissionSlowdown
		}
	}
	return a.state
}

package webtier

import (
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

// Calibration holds the performance model of the paper's hardware (§5.1:
// single-Xeon 2.4 GHz nodes running Tomcat, one HAProxy node, 1 Gbps
// switch). Service times are charged to simulated CPU resources; they are
// calibrated so the failure-free results match Table 1 and Figures 3–4
// (see internal/exp/calibration.go for the experiment-level constants).
type Calibration struct {
	// ReadService is the CPU time to execute one read interaction
	// (parse + query + render).
	ReadService map[rbe.Interaction]time.Duration

	// WriteParse is the CPU time before a write action is submitted
	// for ordering, and WriteRender the time to render its result page.
	WriteParse  time.Duration
	WriteRender time.Duration

	// ApplyCPU is the CPU time every replica spends executing one
	// totally ordered action (the active-replication cost: all replicas
	// apply all writes).
	ApplyCPU map[string]time.Duration

	// LeaderMsgCPU is the per-peer CPU cost the consensus coordinator
	// pays per ordered value (marshalling + I/O for phase-2/learn
	// traffic), charged as k × LeaderMsgCPU on the leader.
	LeaderMsgCPU time.Duration

	// CheckpointPause is CPU time per checkpoint byte (state
	// serialization; concurrent snapshotting keeps it small).
	CheckpointPausePerMB time.Duration
	CheckpointPauseMax   time.Duration

	// PageSize is the modeled response page size in bytes.
	PageSize int64

	// ProxyService is the proxy CPU time per interaction (both
	// directions); it caps cluster-wide throughput at roughly
	// 1/ProxyService, which is the ceiling a single HAProxy node puts
	// on speedup (Figure 3).
	ProxyService time.Duration

	// Probe parameters (paper §5.1: HAProxy removes a server after 4
	// unsuccessful probes and re-adds it when probed active again).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	ProbeFailures int

	// ReqTimeout bounds one interaction end-to-end; expiry counts as an
	// error.
	ReqTimeout time.Duration

	// FenceWait bounds how long a fenced read waits for the serving
	// replica to catch up to the session's commit index before answering
	// TooStale (the staleness bound of the follower-read protocol). It
	// must stay well under ReqTimeout so the proxy's stale-retry still
	// fits in the client's patience. 2 s in DefaultCalibration.
	FenceWait time.Duration

	// JVM garbage-collection model: state-mutating actions promote
	// objects to the old generation; every GCPromotedLimit bytes of
	// promotion triggers a stop-the-world pause whose length grows with
	// the live set (the replicated state). This is what makes the
	// write-heavy ordering profile oscillate (CV 0.2-0.33 in the
	// paper's Tables 1/3) while browsing stays at CV 0.01.
	GCPromotedLimit int64
	GCPauseBase     time.Duration
	GCPausePerMB    time.Duration

	// ActionPromoted maps an action class to its promoted bytes.
	ActionPromoted map[string]int64
}

// DefaultCalibration returns the model of the paper's testbed.
func DefaultCalibration() Calibration {
	return Calibration{
		ReadService: map[rbe.Interaction]time.Duration{
			rbe.Home:          3100 * time.Microsecond,
			rbe.NewProducts:   4200 * time.Microsecond,
			rbe.BestSellers:   5000 * time.Microsecond,
			rbe.ProductDetail: 2400 * time.Microsecond,
			rbe.SearchRequest: 1300 * time.Microsecond,
			rbe.SearchResults: 4200 * time.Microsecond,
			rbe.OrderInquiry:  1300 * time.Microsecond,
			rbe.OrderDisplay:  3100 * time.Microsecond,
			rbe.AdminRequest:  2400 * time.Microsecond,
		},
		WriteParse:  1600 * time.Microsecond,
		WriteRender: 1400 * time.Microsecond,
		// Raw state-machine apply is cheap relative to the request path
		// (no parsing or rendering): it is what every replica pays for
		// every write, and what bounds post-crash replay speed.
		ApplyCPU: map[string]time.Duration{
			"cart":     300 * time.Microsecond,
			"customer": 350 * time.Microsecond,
			"buy":      600 * time.Microsecond,
			"session":  150 * time.Microsecond,
			"admin":    500 * time.Microsecond,
		},
		LeaderMsgCPU:    70 * time.Microsecond,
		GCPromotedLimit: 8 << 20,
		GCPauseBase:     250 * time.Millisecond,
		GCPausePerMB:    1100 * time.Microsecond,
		ActionPromoted: map[string]int64{
			"cart":     380,
			"customer": 1350,
			"buy":      1900,
			"session":  16,
			"admin":    64,
		},
		CheckpointPausePerMB: 120 * time.Microsecond,
		CheckpointPauseMax:   80 * time.Millisecond,
		PageSize:             6 * 1024,
		ProxyService:         420 * time.Microsecond,
		ProbeInterval:        time.Second,
		ProbeTimeout:         500 * time.Millisecond,
		ProbeFailures:        4,
		ReqTimeout:           10 * time.Second,
		FenceWait:            2 * time.Second,
	}
}

// readService returns the read service time for an interaction.
func (c Calibration) readService(kind rbe.Interaction) time.Duration {
	if d, ok := c.ReadService[kind]; ok {
		return d
	}
	return 2 * time.Millisecond
}

// actionClass buckets actions for the cost tables.
func actionClass(action any) string {
	switch action.(type) {
	case tpcw.CartUpdateAction:
		return "cart"
	case tpcw.CreateCustomerAction:
		return "customer"
	case tpcw.BuyConfirmAction:
		return "buy"
	case tpcw.RefreshSessionAction:
		return "session"
	case tpcw.AdminUpdateAction:
		return "admin"
	default:
		return "other"
	}
}

// applyCPU returns the apply cost of an action.
func (c Calibration) applyCPU(action any) time.Duration {
	if d, ok := c.ApplyCPU[actionClass(action)]; ok {
		return d
	}
	return 400 * time.Microsecond
}

// actionPromoted returns the old-generation promotion of an action.
func (c Calibration) actionPromoted(action any) int64 {
	return c.ActionPromoted[actionClass(action)]
}

// gcPause returns the stop-the-world pause for a live set of the given
// nominal size.
func (c Calibration) gcPause(stateBytes int64) time.Duration {
	return c.GCPauseBase + time.Duration(stateBytes/1e6)*c.GCPausePerMB
}

// checkpointPause returns the CPU pause for serializing a checkpoint of
// the given size.
func (c Calibration) checkpointPause(size int64) time.Duration {
	d := time.Duration(float64(size) / 1e6 * float64(c.CheckpointPausePerMB))
	if d > c.CheckpointPauseMax {
		d = c.CheckpointPauseMax
	}
	return d
}

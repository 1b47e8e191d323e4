package shard

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"robuststore/internal/core"
)

// fakeHost is a MigrationHost on a virtual clock whose ordered actions the
// test completes, loses or duplicates at will.
type fakeHost struct {
	now    time.Time
	seq    int
	timers []fakeTimer

	booted, drained bool
	published       []RoutingTable
	ordered         []string // "g<group> <action type>[/<source>]", in submission order

	// complete decides what happens to the n-th (from 0) submission of an
	// op: how many times its completion is delivered.
	complete func(op string, n int) int
	seen     map[string]int
	machines map[int]*exportMachine
}

type fakeTimer struct {
	at  time.Time
	seq int
	fn  func()
}

// exportMachine counts the exports the driver reads from one source group.
type exportMachine struct {
	core.StateMachine
	group   int
	exports int
}

func (m *exportMachine) ExportOwned(func(string) bool) (any, int64) {
	m.exports++
	return fmt.Sprintf("rows of %d", m.group), 1
}
func (m *exportMachine) ImportOwned(any)             {}
func (m *exportMachine) DropOwned(func(string) bool) {}

func newFakeHost() *fakeHost {
	return &fakeHost{
		now: time.Unix(0, 0), booted: true, drained: true,
		complete: func(string, int) int { return 1 },
		seen:     map[string]int{}, machines: map[int]*exportMachine{},
	}
}

func (h *fakeHost) After(d time.Duration, fn func()) {
	h.seq++
	h.timers = append(h.timers, fakeTimer{h.now.Add(d), h.seq, fn})
}
func (h *fakeHost) Now() time.Time            { return h.now }
func (h *fakeHost) Booted() bool              { return h.booted }
func (h *fakeHost) Drained() bool             { return h.drained }
func (h *fakeHost) Publish(next RoutingTable) { h.published = append(h.published, next) }

func (h *fakeHost) Order(g int, action any, done func(core.StateMachine)) {
	op := fmt.Sprintf("g%d %T", g, action)
	if imp, ok := action.(core.PartitionImport); ok {
		op += fmt.Sprintf("/%d", imp.Source)
	}
	h.ordered = append(h.ordered, op)
	n := h.seen[op]
	h.seen[op]++
	if h.machines[g] == nil {
		h.machines[g] = &exportMachine{group: g}
	}
	for i := h.complete(op, n); i > 0; i-- {
		h.After(time.Millisecond, func() { done(h.machines[g]) })
	}
}

// run fires timers in (time, submission) order until until() holds or
// virtual time passes limit.
func (h *fakeHost) run(limit time.Duration, until func() bool) {
	end := h.now.Add(limit)
	for len(h.timers) > 0 && !until() {
		sort.Slice(h.timers, func(i, j int) bool {
			a, b := h.timers[i], h.timers[j]
			return a.at.Before(b.at) || a.at.Equal(b.at) && a.seq < b.seq
		})
		t := h.timers[0]
		if t.at.After(end) {
			return
		}
		h.timers = h.timers[1:]
		h.now = t.at
		t.fn()
	}
}

type observed struct {
	phases []string
	done   int
}

func (o *observed) opts() RebalanceOptions {
	return RebalanceOptions{
		OnPhase: func(p string) { o.phases = append(o.phases, p) },
		Done:    func(error) { o.done++ },
	}
}

var allPhases = []string{PhaseBoot, PhaseDrain, PhaseCopy, PhaseCleanup, PhaseDone}

// TestMigrationResubmitsHiddenCompletion: the first submission of every
// ordered op is lost with its completion (a member crashed), the sweep's
// second one completes twice (a stale duplicate surfaces late). Each step
// still runs exactly once: one export per source, one publication, one
// Done, after the cleanup drops.
func TestMigrationResubmitsHiddenCompletion(t *testing.T) {
	h := newFakeHost()
	h.complete = func(_ string, n int) int { return []int{0, 2, 1}[min(n, 2)] }
	var o observed
	m := NewMigration(h, NewRoutingTable(2), 2, true, o.opts())
	m.Start()
	h.run(time.Minute, func() bool { return o.done > 0 })
	h.run(2*resubmitGap, func() bool { return false }) // let the sweeps notice they are done

	if !reflect.DeepEqual(o.phases, allPhases) || o.done != 1 {
		t.Fatalf("phases %v, Done fired %d times", o.phases, o.done)
	}
	for g := 0; g < 2; g++ {
		if n := h.machines[g].exports; n != 1 {
			t.Errorf("source %d exported %d times, want once", g, n)
		}
	}
	if len(h.published) != 1 || h.published[0].Epoch != 1 {
		t.Fatalf("published %+v, want the epoch-1 table once", h.published)
	}
	want := map[string]int{
		"g0 core.Noop": 2, "g1 core.Noop": 2, // lost, then resubmitted
		"g2 core.PartitionImport/0": 2, "g2 core.PartitionImport/1": 2,
		"g0 core.PartitionDrop": 2, "g1 core.PartitionDrop": 2,
	}
	if !reflect.DeepEqual(h.seen, want) {
		t.Errorf("ordered ops %v, want %v", h.seen, want)
	}
	// Cleanup's drops are ordered only after every import.
	lastImport, firstDrop := -1, len(h.ordered)
	for i, op := range h.ordered {
		switch op {
		case "g2 core.PartitionImport/0", "g2 core.PartitionImport/1":
			lastImport = i
		case "g0 core.PartitionDrop", "g1 core.PartitionDrop":
			firstDrop = min(firstDrop, i)
		}
	}
	if firstDrop < lastImport {
		t.Errorf("a drop was ordered before the imports finished: %v", h.ordered)
	}
	st := m.Status()
	if st.Active || st.MovedSlices != 42 || st.TotalSlices != 128 || st.NewGroup != 2 ||
		st.Window() <= 0 || m.Frozen(m.moved[0]) {
		t.Errorf("final status %+v (window %v)", st, st.Window())
	}
}

// TestMigrationFreezesOnlyBetweenBootAndCutover: the moving slices freeze
// when the new group is up, stay frozen while the host is still draining,
// and thaw with the publication.
func TestMigrationFreezesOnlyBetweenBootAndCutover(t *testing.T) {
	h := newFakeHost()
	h.booted, h.drained = false, false
	var o observed
	m := NewMigration(h, NewRoutingTable(2), 2, false, o.opts())
	m.Start()
	moving := m.moved[0]
	h.run(time.Second, func() bool { return false })
	if m.Frozen(moving) || !reflect.DeepEqual(o.phases, allPhases[:1]) {
		t.Fatalf("before boot: frozen=%v phases=%v", m.Frozen(moving), o.phases)
	}
	h.booted = true
	h.run(time.Second, func() bool { return false })
	if !m.Frozen(moving) || m.Frozen(0) || len(h.ordered) != 0 || !reflect.DeepEqual(o.phases, allPhases[:2]) {
		t.Fatalf("draining: frozen=%v, staying slice frozen=%v, ordered=%v, phases=%v",
			m.Frozen(moving), m.Frozen(0), h.ordered, o.phases)
	}
	h.drained = true
	h.run(time.Minute, func() bool { return o.done > 0 })
	if m.Frozen(moving) || o.done != 1 || !reflect.DeepEqual(o.phases, allPhases) {
		t.Fatalf("after cutover: frozen=%v done=%d phases=%v", m.Frozen(moving), o.done, o.phases)
	}
	// dropMoved=false: no source was told to drop anything.
	for op := range h.seen {
		if op == "g0 core.PartitionDrop" || op == "g1 core.PartitionDrop" {
			t.Errorf("a host that keeps moved rows ordered %s", op)
		}
	}
}

// TestMigrationNothingMoves: a table too small to shed a slice cuts over
// at once — no ordered op at all — and still reports Done exactly once.
func TestMigrationNothingMoves(t *testing.T) {
	for _, dropMoved := range []bool{true, false} {
		h := newFakeHost()
		var o observed
		m := NewMigration(h, RoutingTable{Assign: []int{0}}, 1, dropMoved, o.opts())
		m.Start()
		if len(h.published) != 1 || h.published[0].Epoch != 1 {
			t.Fatalf("dropMoved=%v: published %+v before any event ran", dropMoved, h.published)
		}
		h.run(time.Minute, func() bool { return false })
		if len(h.ordered) != 0 || o.done != 1 || !reflect.DeepEqual(o.phases, allPhases) {
			t.Fatalf("dropMoved=%v: ordered %v, Done ×%d, phases %v", dropMoved, h.ordered, o.done, o.phases)
		}
		if st := m.Status(); st.Active || st.MovedSlices != 0 {
			t.Fatalf("dropMoved=%v: status %+v", dropMoved, st)
		}
	}
}

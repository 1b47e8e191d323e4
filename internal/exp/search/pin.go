package search

// Pinned counterexamples: a failing schedule the hunt found, serialized
// with every knob needed to reproduce the run — deployment shape, RBE
// load, seed, and the shrunk event list — as JSON under
// internal/exp/testdata/pinned/. TestPinnedCases replays every file
// there: a pinned case is a bug that was found, fixed, and must stay
// fixed.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/exp"
	"robuststore/internal/rbe"
)

// PinnedEvent is one fault event in serialized form. Op, Scope and Dir
// use the human-readable names (FaultOp.String and friends) so a pinned
// file reads as documentation of the counterexample.
type PinnedEvent struct {
	AtSec  float64 `json:"at_sec"`
	Op     string  `json:"op"`
	Scope  string  `json:"scope"`
	Group  int     `json:"group"`
	Slot   int     `json:"slot,omitempty"`
	Dir    string  `json:"dir,omitempty"`
	Factor float64 `json:"factor,omitempty"`
}

// PinnedCase is one reproducible counterexample: the shrunk schedule plus
// the full run configuration and the oracle violations observed when it
// was found.
type PinnedCase struct {
	Name       string        `json:"name"`
	Violations []string      `json:"violations"`
	Seed       uint64        `json:"seed"`
	Profile    string        `json:"profile"`
	Servers    int           `json:"servers"`
	Shards     int           `json:"shards"`
	Readers    int           `json:"readers,omitempty"`
	StateMB    int           `json:"state_mb"`
	Browsers   int           `json:"browsers"`
	MeasureSec int           `json:"measure_sec"`
	TxnRate    float64       `json:"txn_rate,omitempty"`
	Events     []PinnedEvent `json:"events"`
}

// opByName inverts FaultOp.String over every op.
var opByName = func() map[string]exp.FaultOp {
	m := map[string]exp.FaultOp{}
	for _, op := range exp.Ops() {
		m[op.String()] = op
	}
	return m
}()

var scopeNames = map[exp.Scope]string{
	exp.ScopeGroupMember:      "member",
	exp.ScopeEveryGroupMember: "every-member",
	exp.ScopeWholeGroup:       "whole-group",
	exp.ScopeGroupLeader:      "leader",
	exp.ScopeGroupMinority:    "minority",
	exp.ScopeGroupReader:      "reader",
}

var scopeByName = func() map[string]exp.Scope {
	m := map[string]exp.Scope{}
	for s, n := range scopeNames {
		m[n] = s
	}
	return m
}()

var dirByName = map[string]env.LinkDir{
	"":         env.LinkBothWays,
	"both":     env.LinkBothWays,
	"outbound": env.LinkOutboundOnly,
	"inbound":  env.LinkInboundOnly,
}

// pinEvents converts a schedule to serialized form.
func pinEvents(events []exp.FaultEvent) []PinnedEvent {
	out := make([]PinnedEvent, 0, len(events))
	for _, ev := range events {
		pe := PinnedEvent{
			AtSec:  ev.AtSec,
			Op:     ev.Op.String(),
			Scope:  scopeNames[ev.Select.Scope],
			Group:  ev.Select.Group,
			Slot:   ev.Select.Slot,
			Factor: ev.Factor,
		}
		if ev.Dir != env.LinkBothWays {
			pe.Dir = ev.Dir.String()
		}
		out = append(out, pe)
	}
	return out
}

// Faultload reconstructs the executable schedule.
func (p PinnedCase) Faultload() (exp.Faultload, error) {
	fl := exp.Faultload{Name: p.Name}
	for i, pe := range p.Events {
		op, ok := opByName[pe.Op]
		if !ok {
			return fl, fmt.Errorf("pinned case %q event %d: unknown op %q", p.Name, i, pe.Op)
		}
		scope, ok := scopeByName[pe.Scope]
		if !ok {
			return fl, fmt.Errorf("pinned case %q event %d: unknown scope %q", p.Name, i, pe.Scope)
		}
		dir, ok := dirByName[pe.Dir]
		if !ok {
			return fl, fmt.Errorf("pinned case %q event %d: unknown dir %q", p.Name, i, pe.Dir)
		}
		fl.Events = append(fl.Events, exp.FaultEvent{
			AtSec:  pe.AtSec,
			Op:     op,
			Select: exp.Selector{Scope: scope, Group: pe.Group, Slot: pe.Slot},
			Dir:    dir,
			Factor: pe.Factor,
		})
	}
	return fl, nil
}

// RunConfig reconstructs the full run configuration the case was found
// under (the faultload is allocated fresh per call).
func (p PinnedCase) RunConfig() (exp.RunConfig, error) {
	fl, err := p.Faultload()
	if err != nil {
		return exp.RunConfig{}, err
	}
	var profile rbe.Profile
	for _, pr := range rbe.Profiles {
		if pr.String() == p.Profile {
			profile = pr
		}
	}
	if profile == 0 {
		return exp.RunConfig{}, fmt.Errorf("pinned case %q: unknown profile %q", p.Name, p.Profile)
	}
	return exp.RunConfig{
		Profile:  profile,
		Servers:  p.Servers,
		Shards:   p.Shards,
		Readers:  p.Readers,
		StateMB:  p.StateMB,
		Fault:    fl,
		Browsers: p.Browsers,
		Measure:  time.Duration(p.MeasureSec) * time.Second,
		Seed:     p.Seed,
		TxnRate:  p.TxnRate,
	}, nil
}

// SavePin writes the case under dir with a content-addressed filename
// (name plus a digest prefix), so re-pinning the same counterexample is
// idempotent and distinct cases never collide. Returns the file path.
func SavePin(dir string, p PinnedCase) (string, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	name := strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' {
			return r
		}
		return '-'
	}, strings.ToLower(p.Name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%x.json", name, sum[:4]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadPins reads every pinned case under dir, sorted by filename. A
// missing directory is an empty corpus, not an error.
func LoadPins(dir string) ([]PinnedCase, []string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []PinnedCase
	var paths []string
	for _, n := range names {
		path := filepath.Join(dir, n)
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		var p PinnedCase
		if err := json.Unmarshal(b, &p); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, p)
		paths = append(paths, path)
	}
	return out, paths, nil
}

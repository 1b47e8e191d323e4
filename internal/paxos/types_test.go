package paxos

import (
	"testing"
	"testing/quick"

	"robuststore/internal/env"
)

func TestQuorumSizes(t *testing.T) {
	// Paper §2: fast quorum ⌈3N/4⌉, classic ⌊N/2⌋+1.
	cases := []struct {
		n             int
		classic, fast int
	}{
		{3, 2, 3},
		{4, 3, 3},
		{5, 3, 4},
		{7, 4, 6},
		{8, 5, 6},
		{12, 7, 9},
	}
	for _, tc := range cases {
		if got := ClassicQuorum(tc.n); got != tc.classic {
			t.Errorf("ClassicQuorum(%d) = %d, want %d", tc.n, got, tc.classic)
		}
		if got := FastQuorum(tc.n); got != tc.fast {
			t.Errorf("FastQuorum(%d) = %d, want %d", tc.n, got, tc.fast)
		}
	}
}

// TestFastQuorumRequirement verifies Lamport's Fast Paxos quorum
// requirement for every cluster size we support: any classic quorum must
// intersect the intersection of any two fast quorums.
func TestFastQuorumRequirement(t *testing.T) {
	for n := 3; n <= 16; n++ {
		q := ClassicQuorum(n)
		f := FastQuorum(n)
		// Worst case |Q ∩ R1 ∩ R2| ≥ q + 2f - 2n.
		if q+2*f-2*n < 1 {
			t.Errorf("n=%d: quorum requirement violated (q=%d f=%d)", n, q, f)
		}
		// And fast quorums are at least classic quorums.
		if f < q {
			t.Errorf("n=%d: fast quorum smaller than classic", n)
		}
	}
}

func TestBallotOwnerRoundRobin(t *testing.T) {
	err := quick.Check(func(seqRaw uint32, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		seq := int64(seqRaw)
		b := Ballot{Seq: seq}
		owner := b.Owner(n)
		return owner == env.NodeID(seq%int64(n))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ballotNone.Owner(5) != -1 {
		t.Error("nil ballot must have no owner")
	}
}

func TestNextOwnedBallot(t *testing.T) {
	err := quick.Check(func(afterRaw uint32, meRaw, nRaw uint8) bool {
		n := int(nRaw%15) + 1
		me := env.NodeID(int(meRaw) % n)
		after := int64(afterRaw)
		b := nextOwnedBallot(after, me, n)
		if b <= after {
			return false
		}
		if b-after > int64(n) {
			return false // must be the smallest such ballot
		}
		return Ballot{Seq: b}.Owner(n) == me
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBallotOrdering(t *testing.T) {
	a := Ballot{Seq: 3}
	b := Ballot{Seq: 7, Fast: true}
	if !a.Less(b) || b.Less(a) || !a.LessEq(a) {
		t.Error("ballot ordering broken")
	}
	if a.String() != "3c" || b.String() != "7f" {
		t.Errorf("ballot strings: %s %s", a, b)
	}
}

func TestSelectValueClassicMandatory(t *testing.T) {
	v := &Value{ID: ValueID{Node: 1, Seq: 5}}
	reports := []acceptedInfo{
		{Inst: 1, B: Ballot{Seq: 2}, V: &Value{ID: ValueID{Node: 0, Seq: 1}}},
		{Inst: 1, B: Ballot{Seq: 7}, V: v}, // highest, classic
	}
	got, found := selectValue(reports, 3, 5, nothingPlaced)
	if !found || got.ID != v.ID {
		t.Fatalf("selectValue = %+v found=%v, want the ballot-7 value", got, found)
	}
}

func TestSelectValueFastThreshold(t *testing.T) {
	// n=5, promise quorum q=3 → threshold q+f-n = 3+4-5 = 2 votes.
	fast := Ballot{Seq: 10, Fast: true}
	va := &Value{ID: ValueID{Node: 0, Seq: 1}}
	vb := &Value{ID: ValueID{Node: 1, Seq: 1}}
	reports := []acceptedInfo{
		{Inst: 1, B: fast, V: va},
		{Inst: 1, B: fast, V: va},
		{Inst: 1, B: fast, V: vb},
	}
	got, found := selectValue(reports, 3, 5, nothingPlaced)
	if !found || got.ID != va.ID {
		t.Fatalf("va has 2 ≥ threshold votes and must be selected; got %+v", got)
	}

	// With one vote each, nothing is choosable: free choice, but it
	// must still return one of the reported values for progress.
	reports = reports[:2]
	reports[1].V = vb
	got, found = selectValue(reports, 3, 5, nothingPlaced)
	if !found || (got.ID != va.ID && got.ID != vb.ID) {
		t.Fatalf("free choice must pick a reported value, got %+v", got)
	}
}

func TestSelectValueNoReports(t *testing.T) {
	if _, found := selectValue(nil, 3, 5, nothingPlaced); found {
		t.Fatal("no reports must mean free choice (found=false)")
	}
}

// TestSelectValueNeverInventsValues: whatever the reports, the selected
// value is one of the reported ones.
func TestSelectValueNeverInventsValues(t *testing.T) {
	err := quick.Check(func(votes []uint8) bool {
		if len(votes) == 0 || len(votes) > 8 {
			return true
		}
		fast := Ballot{Seq: 4, Fast: true}
		var reports []acceptedInfo
		ids := make(map[ValueID]bool)
		for i, v := range votes {
			id := ValueID{Node: env.NodeID(v % 3), Seq: int64(v % 5)}
			reports = append(reports, acceptedInfo{
				Inst: 1, B: fast, V: &Value{ID: id},
			})
			ids[id] = true
			_ = i
		}
		got, found := selectValue(reports, len(reports), 8, nothingPlaced)
		return !found || ids[got.ID]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// nothingPlaced is selectValue's predicate for a leader that has placed no
// value yet.
func nothingPlaced(ValueID) bool { return false }

// TestSelectValuePlacedProperty: the placed predicate steers the free choice
// and nothing else. Random reports — one to five, over four ballots (two
// classic, two fast) and four values — and a random set of placed values,
// with n from 3 to 8 and the classic quorum's q. When the top ballot is
// classic or some value meets the fast threshold, the choice is the one made
// with nothing placed. Under free choice it is a value reported at the top
// ballot; if one reported there is not placed, the choice is the unplaced one
// with the most votes, then the lowest ID; if all are placed, it is the choice
// made with nothing placed.
func TestSelectValuePlacedProperty(t *testing.T) {
	ballots := []Ballot{{Seq: 2}, {Seq: 4, Fast: true}, {Seq: 7, Fast: true}, {Seq: 9}}
	pool := []ValueID{{Node: 0, Seq: 1}, {Node: 1, Seq: 1}, {Node: 1, Seq: 2}, {Node: 2, Seq: 1}}
	steered := 0 // free choices the predicate changed
	err := quick.Check(func(raw []uint8, mask, nRaw uint8) bool {
		n := int(nRaw%6) + 3
		q := ClassicQuorum(n)
		if len(raw) == 0 {
			return true
		}
		raw = raw[:min(len(raw), q, 5)]
		var reports []acceptedInfo
		for _, x := range raw {
			// Value in the low two bits; the later fast ballot three times in
			// eight, so free choices are common.
			bi := []int{0, 1, 2, 2, 2, 3, 1, 2}[x>>2&7]
			reports = append(reports, acceptedInfo{Inst: 1, B: ballots[bi], V: &Value{ID: pool[x&3]}})
		}
		placed := func(id ValueID) bool {
			for i, p := range pool {
				if p == id {
					return mask&(1<<i) != 0
				}
			}
			return false
		}
		got, found := selectValue(reports, q, n, placed)
		plain, _ := selectValue(reports, q, n, nothingPlaced)
		if !found {
			return false
		}

		k := ballotNone
		for _, r := range reports {
			if k.Less(r.B) {
				k = r.B
			}
		}
		votes := make(map[ValueID]int) // at the top ballot
		for _, r := range reports {
			if r.B == k {
				votes[r.V.ID]++
			}
		}
		free := k.Fast
		for _, c := range votes {
			if c >= q+FastQuorum(n)-n {
				free = false
			}
		}
		if !free {
			return got.ID == plain.ID
		}
		if votes[got.ID] == 0 {
			return false // not reported at the top ballot
		}
		anyUnplaced := false
		for id := range votes {
			anyUnplaced = anyUnplaced || !placed(id)
		}
		if !anyUnplaced {
			return got.ID == plain.ID
		}
		if placed(got.ID) {
			return false
		}
		if got.ID != plain.ID {
			steered++
		}
		for id, c := range votes {
			if !placed(id) && (c > votes[got.ID] || c == votes[got.ID] && valueIDLess(id, got.ID)) {
				return false // a better unplaced value
			}
		}
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if steered == 0 {
		t.Fatal("no free choice was steered away from a placed value")
	}
	t.Logf("%d free choices steered away from a placed value", steered)
}

// TestSelectValueUniqueChoosable: at most one value can meet the
// threshold, so selection is deterministic whenever a choosable value
// exists (safety of coordinated recovery).
func TestSelectValueUniqueChoosable(t *testing.T) {
	for n := 4; n <= 12; n++ {
		q := ClassicQuorum(n)
		threshold := q + FastQuorum(n) - n
		// Two distinct values cannot both reach the threshold within q
		// reports.
		if 2*threshold <= q {
			t.Errorf("n=%d: two values could both be choosable (threshold %d, q %d)",
				n, threshold, q)
		}
	}
}

func TestDedupSet(t *testing.T) {
	d := &dedupSet{over: make(map[int64]bool)}
	if !d.add(1) || d.add(1) {
		t.Fatal("basic add/dup")
	}
	if !d.add(3) {
		t.Fatal("gap add")
	}
	if d.base != 1 {
		t.Fatalf("base = %d, want 1", d.base)
	}
	if !d.add(2) {
		t.Fatal("fill gap")
	}
	if d.base != 3 || len(d.over) != 0 {
		t.Fatalf("base = %d over = %v, want compacted to 3", d.base, d.over)
	}
	if !d.has(1) || !d.has(3) || d.has(4) {
		t.Fatal("has() wrong")
	}
}

// TestDedupSetProperty: add returns true exactly once per sequence and
// has() reflects membership, in any insertion order.
func TestDedupSetProperty(t *testing.T) {
	err := quick.Check(func(seqs []uint8) bool {
		d := &dedupSet{over: make(map[int64]bool)}
		seen := make(map[int64]bool)
		for _, sRaw := range seqs {
			s := int64(sRaw%32) + 1
			fresh := d.add(s)
			if fresh == seen[s] {
				return false // added twice or rejected first time
			}
			seen[s] = true
		}
		for s := int64(1); s <= 32; s++ {
			if d.has(s) != seen[s] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWireSizesPositive(t *testing.T) {
	v := &Value{ID: ValueID{Node: 1, Seq: 2}, Size: 100}
	msgs := []interface{ WireSize() int64 }{
		prepareMsg{}, promiseMsg{Accepted: []acceptedInfo{{V: v}}},
		nackMsg{}, acceptMsg{V: v}, acceptedMsg{V: v}, chosenMsg{V: v},
		anyMsg{}, fastProposeMsg{V: v}, forwardMsg{V: v},
		recQueryMsg{}, recInfoMsg{V: v}, pingMsg{},
		catchUpReqMsg{}, catchUpReplyMsg{Entries: []chosenEntry{{V: v}}},
	}
	for _, m := range msgs {
		if m.WireSize() <= 0 {
			t.Errorf("%T has non-positive wire size", m)
		}
	}
	withVotes := promiseMsg{Accepted: []acceptedInfo{{V: v}}}
	if withVotes.WireSize() <= (prepareMsg{}).WireSize() {
		t.Error("promise with votes must cost more than bare prepare")
	}
}

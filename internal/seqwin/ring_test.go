package seqwin

import (
	"strings"
	"testing"

	"robuststore/internal/xrand"
)

// TestRingMatchesMapReference drives a ring and a map with the same seeded
// mix of operations, the traffic of a completion table: appends at End
// (some past a gap), takes of live entries out of order followed by the
// floor moving past the taken prefix, drops that pass End, resets, and
// reads on both sides of the window. The backlog rises and falls in phases,
// so the array doubles while the window wraps around it. After every
// operation it looks at the whole array: an entry outside [Base, End) must
// be zero, or what it points to would stay reachable.
func TestRingMatchesMapReference(t *testing.T) {
	wrappedGrowths := 0
	for seed := uint64(0); seed < 50; seed++ {
		rng := xrand.New(seed)
		var r Ring[int64, *int]
		ref := map[int64]*int{}
		base := int64(rng.Intn(5000))
		end := base
		r.Reset(base)
		rising := true
		for op := 0; op < 5000; op++ {
			if rng.Intn(200) == 0 {
				rising = !rising
			}
			appendAt := 60
			if !rising {
				appendAt = 30
			}
			before := len(r.buf)
			wrapped := before > 0 && end > base && r.pos(base) > r.pos(end-1)
			switch x := rng.Intn(100); {
			case x < appendAt: // append at End, sometimes past a gap
				i := end
				if x < 3 {
					i += int64(rng.Intn(20))
				}
				v := new(int)
				*v = op
				*r.Ensure(i) = v
				ref[i] = v
				end = i + 1
			case x < 90: // take a live entry, then let the floor pass the taken prefix
				if end == base {
					break
				}
				i := base + int64(rng.Intn(int(end-base)))
				if p := r.At(i); p != nil {
					*p = nil
				}
				delete(ref, i)
				floor := base
				for floor < end && ref[floor] == nil {
					floor++
				}
				r.DropBelow(floor)
				base = floor
			case x < 97: // read, inside and around the window
				i := base - 3 + int64(rng.Intn(int(end-base)+6))
				var got *int
				if p := r.At(i); p != nil {
					got = *p
				}
				if got != ref[i] {
					t.Fatalf("seed %d op %d: At(%d) = %v, reference has %v", seed, op, i, got, ref[i])
				}
				if (i < base || i >= end) && r.At(i) != nil {
					t.Fatalf("seed %d op %d: At(%d) outside [%d, %d) is not nil", seed, op, i, base, end)
				}
			case x < 99: // drop, sometimes past End
				i := base + int64(rng.Intn(int(end-base)+1))
				if x == 98 {
					i = end + int64(rng.Intn(100))
				}
				r.DropBelow(i)
				for k := range ref {
					if k < i {
						delete(ref, k)
					}
				}
				base, end = max(base, i), max(end, i)
			default:
				base = int64(rng.Intn(5000))
				end = base
				r.Reset(base)
				clear(ref)
			}
			if len(r.buf) > before && wrapped {
				wrappedGrowths++
			}
			if r.Base() != base || r.End() != end {
				t.Fatalf("seed %d op %d: ring is [%d, %d), reference [%d, %d)", seed, op, r.Base(), r.End(), base, end)
			}
			if n := len(r.buf); n&(n-1) != 0 || int64(n) < end-base {
				t.Fatalf("seed %d op %d: array of %d for a span of %d", seed, op, n, end-base)
			}
			for at, p := range r.buf {
				i := base + int64((at-r.pos(base)+len(r.buf))%len(r.buf))
				if want := ref[i]; i < end && p != want || i >= end && p != nil {
					t.Fatalf("seed %d op %d: array slot %d holds %v, reference has %v at %d in [%d, %d)", seed, op, at, p, want, i, base, end)
				}
			}
		}
		for i := base; i < end; i++ {
			var got *int
			if p := r.At(i); p != nil {
				got = *p
			}
			if got != ref[i] {
				t.Fatalf("seed %d: At(%d) = %v at the end, reference has %v", seed, i, got, ref[i])
			}
		}
	}
	t.Logf("%d growths with the window wrapped", wrappedGrowths)
	if wrappedGrowths < 10 {
		t.Fatalf("the array grew %d times while the window wrapped around it; the schedule no longer tests regrowth", wrappedGrowths)
	}
}

func TestRingEnsureBelowBasePanics(t *testing.T) {
	var r Ring[int64, int]
	r.Reset(100)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "seqwin") {
			t.Fatalf("Ensure below Base: recovered %q, want a panic naming the package", msg)
		}
	}()
	r.Ensure(99)
}

// TestRingSteadyStreamAllocatesNothing: a completion stream whose backlog
// stays under its high-water mark — entries appended at End, taken in a
// shuffled order, the floor following the taken prefix — reuses the array
// it grew during warm-up.
func TestRingSteadyStreamAllocatesNothing(t *testing.T) {
	var r Ring[int64, *int]
	rng := xrand.New(1)
	v := new(int)
	live := 0
	stream := func(n int) {
		for range n {
			if live < 512 {
				r.Append(v)
				live++
				continue
			}
			p := r.At(r.Base() + int64(rng.Intn(int(r.End()-r.Base()))))
			if *p == nil {
				continue
			}
			*p = nil
			live--
			floor := r.Base()
			for floor < r.End() && *r.At(floor) == nil {
				floor++
			}
			r.DropBelow(floor)
		}
	}
	stream(100_000)
	if got := testing.AllocsPerRun(10, func() { stream(10_000) }); got != 0 {
		t.Fatalf("a steady stream of 10,000 appends and takes allocates %v times", got)
	}
}

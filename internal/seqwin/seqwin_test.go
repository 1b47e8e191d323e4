package seqwin

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"robuststore/internal/xrand"
)

// TestWindowMatchesMapReference drives a window and a map with the same
// seeded mix of writes, reads, drops, resets and walks, from a non-zero base,
// with writes that jump 10⁵ past End and drops that pass it. After every drop
// it also looks under the window: the entries DropBelow left behind in the
// boundary chunk must be zero, or what they point to would stay reachable.
func TestWindowMatchesMapReference(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		rng := xrand.New(seed)
		var w Window[int64, *int]
		ref := map[int64]*int{}
		base := int64(rng.Intn(5000))
		end := base
		w.Reset(base)
		pick := func() int64 { return base - 3 + int64(rng.Intn(int(end-base)+8)) }
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(100); {
			case r < 45: // write, mostly near the top
				i := end - int64(rng.Intn(40)) + int64(rng.Intn(44))
				if r == 0 {
					i = end + 100_000
				}
				i = max(i, base)
				v := new(int)
				*v = op
				*w.Ensure(i) = v
				ref[i] = v
				end = max(end, i+1)
			case r < 75: // read
				i := pick()
				var got *int
				if p := w.At(i); p != nil {
					got = *p
				}
				if got != ref[i] {
					t.Fatalf("seed %d op %d: At(%d) = %v, reference has %v", seed, op, i, got, ref[i])
				}
				if p := w.At(i); (i < base || i >= end) && p != nil {
					t.Fatalf("seed %d op %d: At(%d) outside [%d, %d) is not nil", seed, op, i, base, end)
				}
			case r < 85: // drop, sometimes past End
				i := pick()
				if r == 75 {
					i = end + int64(rng.Intn(1000))
				}
				w.DropBelow(i)
				for k := range ref {
					if k < i {
						delete(ref, k)
					}
				}
				base, end = max(base, i), max(end, i)
				if len(w.chunks) > 0 && w.chunks[0] != nil {
					for at, p := range w.chunks[0][:base&chunkMask] {
						if p != nil {
							t.Fatalf("seed %d op %d: DropBelow(%d) left entry %d of the boundary chunk set", seed, op, i, at)
						}
					}
				}
			case r < 87:
				base = int64(rng.Intn(5000))
				end = base
				w.Reset(base)
				clear(ref)
			default: // walk
				from := pick()
				want := make([]int64, 0, len(ref))
				for k := range ref {
					if k >= from {
						want = append(want, k)
					}
				}
				slices.Sort(want)
				var got []int64
				last := max(from, base) - 1
				for i, p := range w.From(from) {
					if i <= last || i >= end {
						t.Fatalf("seed %d op %d: walk from %d in [%d, %d) visits %d after %d", seed, op, from, base, end, i, last)
					}
					last = i
					if *p != ref[i] {
						t.Fatalf("seed %d op %d: walk sees %v at %d, reference has %v", seed, op, *p, i, ref[i])
					}
					if *p != nil {
						got = append(got, i)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: walk from %d found %d written entries, reference has %d", seed, op, from, len(got), len(want))
				}
			}
			if w.Base() != base || w.End() != end {
				t.Fatalf("seed %d op %d: window is [%d, %d), reference [%d, %d)", seed, op, w.Base(), w.End(), base, end)
			}
		}
	}
}

func TestEnsureBelowBasePanics(t *testing.T) {
	var w Window[int64, int]
	w.Reset(100)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "seqwin") {
			t.Fatalf("Ensure below Base: recovered %q, want a panic naming the package", msg)
		}
	}()
	w.Ensure(99)
}

// TestAppendBudget: a window costs its chunks and a directory that doubles —
// N/256 + ⌈log₂(N/256)⌉ + 2 allocations and at most 5 % over the entries'
// own bytes for N appends. (A slice grown by append allocates about twice
// the final size in total and copies as much; a map about four times.)
func TestAppendBudget(t *testing.T) {
	const n = 100_000
	fill := func() {
		var w Window[int64, int64]
		for i := int64(0); i < n; i++ {
			w.Append(i)
		}
	}
	chunks := float64(n) / chunkLen
	allocs := testing.AllocsPerRun(20, fill)
	if limit := chunks + math.Ceil(math.Log2(chunks)) + 2; allocs > limit {
		t.Errorf("%d appends: %v allocations, budget %.1f", n, allocs, limit)
	}
	var before, after runtime.MemStats
	procs := runtime.GOMAXPROCS(1) // the statistics count every goroutine's allocations
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	bytes := float64(after.TotalAlloc - before.TotalAlloc)
	if limit := 1.05 * n * float64(unsafe.Sizeof(int64(0))); bytes > limit {
		t.Errorf("%d appends: %.0f B allocated, budget %.0f", n, bytes, limit)
	}
	t.Logf("%d appends: %v allocations, %.2f B per entry", n, allocs, bytes/n)
}

// TestDropReleases: once the floor is one below End, the collector gets back
// every chunk but the last and everything the dropped entries pointed to —
// including those that share the last chunk with the survivor.
func TestDropReleases(t *testing.T) {
	const n = 10*chunkLen + 100
	var w Window[int64, *[4]int]
	var freedVals, freedChunks atomic.Int64
	for i := 0; i < n; i++ {
		v := new([4]int)
		runtime.SetFinalizer(v, func(*[4]int) { freedVals.Add(1) })
		w.Append(v)
	}
	for _, c := range w.chunks {
		runtime.SetFinalizer(c, func(*[chunkLen]*[4]int) { freedChunks.Add(1) })
	}
	total := int64(len(w.chunks))
	w.DropBelow(w.End() - 1)
	deadline := time.Now().Add(5 * time.Second)
	for (freedVals.Load() < n-1 || freedChunks.Load() < total-1) && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freedVals.Load(); got != n-1 {
		t.Errorf("%d of %d dropped values collected", got, n-1)
	}
	if got := freedChunks.Load(); got != total-1 {
		t.Errorf("%d of %d chunks collected, want all but one", got, total)
	}
	if p := w.At(w.End() - 1); p == nil || *p == nil {
		t.Error("the entry above the floor is gone")
	}
	runtime.KeepAlive(&w)
}

// TestWalkAllocatesNothing: the ordering path walks its windows on every
// sweep and every prepare.
func TestWalkAllocatesNothing(t *testing.T) {
	var w Window[int64, int64]
	for i := int64(0); i < 3*chunkLen; i++ {
		w.Append(i)
	}
	var sum int64
	if got := testing.AllocsPerRun(100, func() {
		for _, p := range w.From(chunkLen / 2) {
			sum += *p
		}
	}); got != 0 {
		t.Fatalf("a walk allocates %v times", got)
	}
}

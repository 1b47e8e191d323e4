package slab

import (
	"testing"
	"unsafe"
)

// rec is a record with a pointer, so its arrays carry the runtime's header.
type rec struct {
	p    *int
	a, b int64
	s    string
}

// TestCarveHandsOutEachRecordOnce: runs of 1 to 9 records, carved until
// several arrays were taken, are fresh zero records, capped at their length,
// and never overlap; a run starts a new array only when it does not fit the
// current one, and an array holds no more than fits in Bytes beside the
// runtime's header. A run longer than an array gets a slice of its own and
// leaves the current array as it was.
func TestCarveHandsOutEachRecordOnce(t *testing.T) {
	const size = int(unsafe.Sizeof(rec{}))
	per := (Bytes - 8) / size
	var s Slab[rec]
	seen := map[*rec]bool{}
	// follows reports whether r sits right after last in memory.
	follows := func(r, last *rec) bool {
		return uintptr(unsafe.Pointer(r)) == uintptr(unsafe.Pointer(last))+uintptr(size)
	}
	var last *rec
	arrays, used := 0, 0 // arrays taken; records handed out from the current one
	for i := 0; arrays <= 4; i++ {
		n := 1 + i%9
		run := s.Carve(n)
		if len(run) != n || cap(run) != n {
			t.Fatalf("run %d: len %d, cap %d, want %d", i, len(run), cap(run), n)
		}
		if last != nil && follows(&run[0], last) {
			used += n
		} else {
			if last != nil && used+n <= per {
				t.Fatalf("run %d of %d started a new array with %d of %d records used", i, n, used, per)
			}
			arrays, used = arrays+1, n
		}
		if used > per {
			t.Fatalf("run %d: an array holds %d records of %d B, more than %d", i, used, size, per)
		}
		for j := range run {
			if seen[&run[j]] {
				t.Fatalf("run %d: record %p handed out twice", i, &run[j])
			}
			if run[j] != (rec{}) {
				t.Fatalf("run %d: record %p is not zero: %+v", i, &run[j], run[j])
			}
			seen[&run[j]] = true
			run[j].s = "written"
		}
		last = &run[n-1]
	}

	long := s.Carve(per + 1)
	if len(long) != per+1 || cap(long) != per+1 || seen[&long[0]] {
		t.Fatalf("a run of %d records: len %d, cap %d, reused %v", per+1, len(long), cap(long), seen[&long[0]])
	}
	if !follows(s.Next(), last) {
		t.Fatalf("a run longer than an array moved the slab off its current array")
	}
}

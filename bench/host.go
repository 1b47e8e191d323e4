package main

import (
	"runtime"
	"syscall"
	"time"
)

// hostCost is what one timed section cost this machine. Everything here is
// on the wall clock side of the two-clock split: it varies from run to run
// and is reported as a median of passes.
type hostCost struct {
	WallNs     int64
	CPUNs      int64 // process user+system time (getrusage), all threads
	Mallocs    uint64
	Bytes      uint64
	LiveHeapMB float64 // HeapAlloc after a forced GC, system still reachable
}

// cpuNow returns the CPU time this process has consumed so far.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// setupClock times a pass's set-up. setup_s is the CPU time it consumed
// (user+system, all threads, so the collector's share counts), not the wall
// time it took: this shared host has slow phases lasting minutes in which the
// wall time of one deterministic set-up doubles (order_pipeline 0.19 s in
// five consecutive runs, 0.32 s in the next five) while its CPU time grows by
// a fifth. No set-up here sleeps except live_cart's warm-up, so work moved
// into set-up shows in either.
type setupClock struct {
	wall time.Time
	cpu  int64
}

func startSetup() setupClock { return setupClock{time.Now(), cpuNow()} }

func (c setupClock) stop(p *pass) {
	p.SetupS = float64(cpuNow()-c.cpu) / 1e9
	p.SetupWall = time.Since(c.wall).Seconds()
}

// measureHost runs the timed section between two forced collections. The
// caller keeps the system under test reachable until measureHost returns,
// so LiveHeapMB is the heap the system retains, not what the GC could
// free once it is dropped.
func measureHost(section func()) hostCost {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuNow(), time.Now()
	section()
	wall := time.Since(t0)
	cpu := cpuNow() - cpu0
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	return hostCost{
		WallNs:     wall.Nanoseconds(),
		CPUNs:      cpu,
		Mallocs:    after.Mallocs - before.Mallocs,
		Bytes:      after.TotalAlloc - before.TotalAlloc,
		LiveHeapMB: float64(live.HeapAlloc) / (1 << 20),
	}
}

package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// usage is what one bracketed stretch of work cost the process.
type usage struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

// measured runs fn and returns the wall time, the getrusage user+sys
// CPU time and the runtime.MemStats allocation deltas across it. The
// MemStats reads stop the world, so they sit outside the wall bracket.
func measured(fn func()) usage {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	return usage{wall: wall, cpu: cpu, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("bench: getrusage: %v", err)) // RUSAGE_SELF cannot fail on a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is HeapAlloc after collecting garbage. Two collections: the
// first only moves sync.Pool contents to the victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// percentileUS returns the q-quantile of the samples in microseconds,
// by the same nearest-rank rule as sim.DriverResult.Percentile. It sorts
// the slice in place.
func percentileUS(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := min(max(int(q*float64(len(samples)))-1, 0), len(samples)-1)
	return float64(samples[i]) / float64(time.Microsecond)
}

// median returns the middle value (the mean of the middle two for an
// even count).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

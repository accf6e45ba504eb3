package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	d5metrics "deep500/internal/metrics"
)

// runtime/metrics samples read around every measured window.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mLiveHeap   = "/gc/heap/live:bytes"
)

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu              time.Duration // user+sys CPU from getrusage
	allocBytes       uint64
	gcCycles         uint64
	gcCPU, rtCPUSecs float64
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		rtCPUSecs:  s[3].Value.Float64(),
	}
}

// slice is one part of a measured window: its resource use and the
// peak live heap (as of the latest GC) seen during it.
type slice struct {
	start, end time.Time
	cpu        time.Duration
	allocBytes uint64
	heapPeak   uint64
}

// slicer cuts a window into slices of equal length until stopped; a last,
// partial slice is dropped.
type slicer struct {
	stop   chan struct{}
	done   sync.WaitGroup
	slices []slice
}

// heapSampleEvery is how often the live heap is read. It changes only when
// a GC cycle ends; cycles here are 40 ms (dist_dsgd) to 300 ms apart.
const heapSampleEvery = 20 * time.Millisecond

func startSlicer(every time.Duration) *slicer {
	s := &slicer{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		heap := []metrics.Sample{{Name: mLiveHeap}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		cur := slice{start: time.Now()}
		u0 := readUsage()
		next := cur.start.Add(every)
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > cur.heapPeak {
				cur.heapPeak = v
			}
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				if now.Before(next) {
					continue
				}
				u1 := readUsage()
				cur.end, cur.cpu, cur.allocBytes = now, u1.cpu-u0.cpu, u1.allocBytes-u0.allocBytes
				s.slices = append(s.slices, cur)
				cur, u0, next = slice{start: now}, u1, next.Add(every)
			}
		}
	}()
	return s
}

// end stops the slicer and returns the complete slices.
func (s *slicer) end() []slice {
	close(s.stop)
	s.done.Wait()
	return s.slices
}

// measured runs fn between two resource snapshots, cut into slices of
// length every, starting from a collected heap so one window's garbage is
// not billed to the next.
func measured(every time.Duration, fn func() error) (before, after usage, slices []slice, err error) {
	runtime.GC()
	before = readUsage()
	sl := startSlicer(every)
	err = fn()
	slices = sl.end()
	after = readUsage()
	return before, after, slices, err
}

// median and p99 of a sample set, through the repository's percentile
// helpers.
func median(xs []float64) float64 { return d5metrics.Summarize(xs).Median }

func p99(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return d5metrics.Percentile(sorted, 99)
}

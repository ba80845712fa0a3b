package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime metrics read around the traced phase.
const (
	mSchedLat  = "/sched/latencies:seconds"
	mGCPauses  = "/sched/pauses/total/gc:seconds"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
	mGCCycles  = "/gc/cycles/total:gc-cycles"
	mAllocB    = "/gc/heap/allocs:bytes"
	mAllocObj  = "/gc/heap/allocs:objects"
	mHeapBytes = "/memory/classes/heap/objects:bytes"
)

// rtSnap is one reading of the runtime metrics plus the process CPU time.
type rtSnap struct {
	at      time.Time
	cpu     time.Duration
	samples []metrics.Sample
}

func readRuntime() rtSnap {
	names := []string{mSchedLat, mGCPauses, mGCCPU, mTotalCPU, mGCCycles, mAllocB, mAllocObj}
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{at: time.Now(), cpu: processCPU(), samples: s}
}

func (r rtSnap) value(name string) metrics.Value {
	for _, s := range r.samples {
		if s.Name == name {
			return s.Value
		}
	}
	return metrics.Value{}
}

func (r rtSnap) num(name string) float64 {
	v := r.value(name)
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// histP returns the q-quantile of the observations a histogram metric
// gained between two readings, as the upper edge of the bucket holding
// it (the lower edge where the upper one is unbounded).
func histP(before, after rtSnap, name string, q float64) float64 {
	a, b := after.value(name), before.value(name)
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(ha.Counts))
	for i := range ha.Counts {
		delta[i] = ha.Counts[i] - hb.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= want {
			if up := ha.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return ha.Buckets[i]
		}
	}
	return 0
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch samples the live heap every few milliseconds until stopped
// and keeps the peak: runtime/metrics has no high-water mark of its own.
type heapWatch struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeapBytes}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak live heap in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.stopCh)
	h.wg.Wait()
	return h.peak
}

package main

import (
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio is a reported ratio together with its base counts.
type ratio struct {
	Num, Den int64
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// medianMS is the median of ds in milliseconds.
func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// footprintMB is the memory the Go runtime holds from the operating
// system and has not released: the process's resident heap, stacks and
// runtime metadata, read without stopping the world.
func footprintMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakMemory tracks the highest footprint sampled in each window of the
// measured phase — a pass over a cold pool, a round of serve-edits
// traffic — and reports the median of those peaks. A single window's peak
// depends on whether a GC cycle happened to end while a large request
// held its tables, so the run's single highest sample moves far more
// between runs than the median window's peak. Freed set-up memory is
// returned to the system before the phase starts, so set-up does not set
// it. Safe for concurrent use.
type peakMemory struct {
	mu    sync.Mutex
	peaks []float64 // by window
}

func newPeakMemory() *peakMemory {
	debug.FreeOSMemory()
	p := &peakMemory{}
	p.sample(0)
	return p
}

func (p *peakMemory) sample(window int) {
	f := footprintMB()
	p.mu.Lock()
	for len(p.peaks) <= window {
		p.peaks = append(p.peaks, 0)
	}
	p.peaks[window] = max(p.peaks[window], f)
	p.mu.Unlock()
}

func (p *peakMemory) mb() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return median(p.peaks)
}

// heapAllocBytes is the cumulative number of bytes the process has
// allocated on the heap; it reads a runtime counter without stopping the
// world.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

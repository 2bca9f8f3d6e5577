package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// hist is a fixed-size latency histogram over non-negative integer
// nanoseconds. Values below 1<<subBits are counted exactly; larger values
// land in buckets of relative width 2^-(subBits-1), so a quantile is off by
// at most 0.1 %. Record never allocates, which keeps it usable inside the
// timed packet loop.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	subBits  = 11
	subCount = 1 << subBits
	maxExp   = 40 // values up to ~1.1e12 ns
)

func newHist() *hist {
	return &hist{counts: make([]uint64, subCount+(maxExp-subBits+1)*subCount/2)}
}

func histIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - subBits // >= 1: how far v's top bit sits above the exact range
	if e > maxExp-subBits+1 {
		return -1
	}
	// The top subBits bits of v, of which the highest is always set.
	top := v >> uint(e)
	return subCount + (e-1)*subCount/2 + int(top-subCount/2)
}

// histLow is the smallest value mapped to bucket i.
func histLow(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	j := i - subCount
	e := j/(subCount/2) + 1
	top := uint64(j%(subCount/2)) + subCount/2
	return top << uint(e)
}

func (h *hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := histIndex(uint64(ns))
	if i < 0 {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) Count() uint64 { return h.n }

// Quantile returns the nearest-rank q-quantile: the smallest recorded value
// v such that at least ceil(q*n) samples are <= v. Exact below 2048 ns; above
// that, the midpoint of the bucket holding v.
func (h *hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < subCount {
				return float64(i)
			}
			lo := histLow(i)
			hi := histLow(i + 1)
			return (float64(lo) + float64(hi-1)) / 2
		}
	}
	return float64(histLow(len(h.counts) - 1))
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// procStat is one reading of the process-wide counters the per-packet cost
// metrics are differences of, or the difference of two readings.
type procStat struct {
	user, sys  time.Duration
	ctxsw      int64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// readProc reads rusage and the runtime's allocation counters. It stops the
// world briefly (runtime.ReadMemStats), so call it only at phase boundaries.
func readProc() procStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStat{
		user:       tv(ru.Utime),
		sys:        tv(ru.Stime),
		ctxsw:      ru.Nvcsw + ru.Nivcsw,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
}

// to is the difference b - a of two readings.
func (a procStat) to(b procStat) procStat {
	return procStat{
		user:       b.user - a.user,
		sys:        b.sys - a.sys,
		ctxsw:      b.ctxsw - a.ctxsw,
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.allocBytes - a.allocBytes,
		gcCycles:   b.gcCycles - a.gcCycles,
	}
}

func (d *procStat) add(o procStat) {
	d.user += o.user
	d.sys += o.sys
	d.ctxsw += o.ctxsw
	d.mallocs += o.mallocs
	d.allocBytes += o.allocBytes
	d.gcCycles += o.gcCycles
}

// liveHeap forces a collection and returns the bytes still in use.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clockCost is the median cost of one back-to-back pair of time.Now calls,
// subtracted from span durations so a layer's time excludes the timer's.
func clockCost() time.Duration {
	xs := make([]float64, 4001)
	for i := range xs {
		a := time.Now()
		b := time.Now()
		xs[i] = float64(b.Sub(a))
	}
	return time.Duration(median(xs))
}

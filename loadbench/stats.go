package main

import (
	"math"
	"sort"
	"time"
)

// latencies holds per-operation client-side latencies of one phase.
type latencies []time.Duration

// sorted returns a sorted copy.
func (l latencies) sorted() latencies {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// rank is the 1-based nearest-rank position of quantile q (0 < q <= 1)
// in n samples: the smallest rank whose cumulative share reaches q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of sorted samples; zero
// when there are none.
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	return l[rank(len(l), q)-1]
}

// beyond counts the samples that lie strictly above the q-quantile's
// rank. A percentile is only reported as measured when at least
// minTail samples lie beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// median of float values (mean of the middle pair for even counts);
// NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// window is one fixed-length slice of the timed phase. Host noise —
// CPU stolen by other tenants of the virtual machine's host — comes in
// bursts; the rate and latency metrics are taken over the windows the
// host left alone, so a burst does not move the result.
type window struct {
	ops   int
	cpu   time.Duration // ccserved CPU used during the window
	steal float64       // share of host CPU time stolen during the window
	lats  latencies     // latencies of the operations completed in it
}

// mark is a reading taken at a window boundary: cumulative ccserved CPU
// and the host's stolen and total CPU ticks.
type mark struct {
	cpu          time.Duration
	steal, total int64
}

// windows assigns samples, by completion time, to len(marks)-1 windows
// of length w from origin; marks[k] was read at origin+k*w. Operations
// completing after the last window count in the phase totals only.
func windows(samples []sample, origin time.Time, w time.Duration, marks []mark) []window {
	if len(marks) < 2 {
		return nil
	}
	out := make([]window, len(marks)-1)
	for k := range out {
		a, b := marks[k], marks[k+1]
		out[k].cpu = b.cpu - a.cpu
		if b.total > a.total {
			out[k].steal = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
	}
	for _, s := range samples {
		k := int(s.done.Sub(origin) / w)
		if k < 0 || k >= len(out) {
			continue
		}
		out[k].ops++
		if !s.failed {
			out[k].lats = append(out[k].lats, s.lat)
		}
	}
	return out
}

// calmWindows returns, in time order, the windows during which the
// hypervisor stole less than limit of the host's CPU, or — when fewer
// than a third of all windows are that calm — the least-stolen third.
func calmWindows(ws []window, limit float64) []window {
	var calm []window
	for _, w := range ws {
		if w.steal < limit {
			calm = append(calm, w)
		}
	}
	if n := (len(ws) + 2) / 3; len(calm) < n {
		return leastStolen(ws, n)
	}
	return calm
}

// leastStolen returns the n windows (all, when there are fewer) during
// which the host stole the smallest share of its CPU, in time order.
func leastStolen(ws []window, n int) []window {
	if n >= len(ws) {
		return ws
	}
	idx := make([]int, len(ws))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ws[idx[a]].steal < ws[idx[b]].steal })
	idx = idx[:n]
	sort.Ints(idx)
	out := make([]window, n)
	for i, k := range idx {
		out[i] = ws[k]
	}
	return out
}

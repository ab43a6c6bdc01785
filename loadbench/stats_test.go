package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var l latencies
	for i := 1; i <= 1000; i++ {
		l = append(l, time.Duration(i)*time.Millisecond)
	}
	// Shuffle deterministically; sorted must restore order.
	for i := range l {
		j := (i * 7919) % len(l)
		l[i], l[j] = l[j], l[i]
	}
	s := l.sorted()
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
		{0.999, 999 * time.Millisecond},
		{1, 1000 * time.Millisecond},
		{0.0001, 1 * time.Millisecond},
	} {
		if got := s.quantile(tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := (latencies{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestBeyondSampleCount(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{
		{0, 0.99, 0},
		{1, 0.99, 0},
		{100, 0.99, 1},
		{999, 0.99, 9},   // rank ceil(989.01) = 990
		{1000, 0.99, 10}, // the least n with ten samples beyond p99
		{1001, 0.99, 10},
		{2000, 0.5, 1000},
	} {
		if got := beyond(tc.n, tc.q); got != tc.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	xs := []float64{5, 4, 3}
	median(xs)
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
}

func TestWindows(t *testing.T) {
	origin := time.Unix(1000, 0)
	var samples []sample
	add := func(at time.Duration, n int, failed bool) {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{done: origin.Add(at), lat: time.Millisecond, failed: failed})
		}
	}
	add(100*time.Millisecond, 600, false)  // window 0
	add(1500*time.Millisecond, 500, false) // window 1
	add(1600*time.Millisecond, 2, true)    // window 1, failed: counted, no latency
	add(2999*time.Millisecond, 700, false) // window 2
	add(3100*time.Millisecond, 9, false)   // after the last window
	marks := []mark{
		{cpu: 0, steal: 0, total: 0},
		{cpu: time.Second, steal: 0, total: 200},
		{cpu: 3 * time.Second / 2, steal: 20, total: 400}, // a tenth stolen
		{cpu: 3 * time.Second, steal: 20, total: 600},
	}
	ws := windows(samples, origin, time.Second, marks)
	if len(ws) != 3 {
		t.Fatalf("%d windows, want 3", len(ws))
	}
	for i, want := range []struct {
		ops, lats int
		cpu       time.Duration
		steal     float64
	}{{600, 600, time.Second, 0}, {502, 500, time.Second / 2, 0.1}, {700, 700, 3 * time.Second / 2, 0}} {
		if ws[i].ops != want.ops || len(ws[i].lats) != want.lats || ws[i].cpu != want.cpu || ws[i].steal != want.steal {
			t.Errorf("window %d = %d ops, %d latencies, cpu %v, steal %v; want %+v", i, ws[i].ops, len(ws[i].lats), ws[i].cpu, ws[i].steal, want)
		}
	}
	if q := leastStolen(ws, 2); len(q) != 2 || q[0].ops != 600 || q[1].ops != 700 {
		t.Errorf("least-stolen windows = %+v, want windows 0 and 2 in time order", q)
	}
	if q := leastStolen(ws, 5); len(q) != 3 {
		t.Errorf("asking for more windows than exist returned %d, want all 3", len(q))
	}
	if q := calmWindows(ws, 0.05); len(q) != 2 || q[0].ops != 600 || q[1].ops != 700 {
		t.Errorf("calm windows = %+v, want windows 0 and 2", q)
	}
	if q := calmWindows(ws, 0); len(q) != 1 || q[0].ops != 600 {
		t.Errorf("with no calm window, got %+v; want the least-stolen third, window 0", q)
	}
	if windows(samples, origin, time.Second, marks[:1]) != nil {
		t.Error("windows without a second CPU reading must be empty")
	}
}

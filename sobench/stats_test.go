package main

import (
	"testing"
	"time"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestNearestRank(t *testing.T) {
	hundred := make([]time.Duration, 100)
	for i := range hundred {
		hundred[i] = time.Duration(100-i) * time.Millisecond // unsorted on purpose
	}
	cases := []struct {
		name string
		xs   []time.Duration
		p    float64
		want time.Duration
	}{
		{"p50 of 1..10 is the 5th", durs(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 50, 5 * time.Millisecond},
		{"p90 of 1..10 is the 9th", durs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 90, 9 * time.Millisecond},
		{"p99 of 1..100 is the 99th", hundred, 99, 99 * time.Millisecond},
		{"p100 is the maximum", durs(3, 1, 2), 100, 3 * time.Millisecond},
		{"tiny p is the minimum", durs(3, 1, 2), 0.1, 1 * time.Millisecond},
		{"p50 of two is the lower", durs(4, 2), 50, 2 * time.Millisecond},
	}
	for _, c := range cases {
		got, ok := nearestRank(append([]time.Duration(nil), c.xs...), c.p)
		if !ok || got != c.want {
			t.Errorf("%s: got %v (%v), want %v", c.name, got, ok, c.want)
		}
	}
	if _, ok := nearestRank(nil, 50); ok {
		t.Error("empty sample must report no percentile")
	}
	if _, ok := nearestRank(durs(1), 0); ok {
		t.Error("p = 0 must report no percentile")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {100, 99, 1}, {10, 50, 5}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// A refused or failed request is charged as missing every limit, so it
// lands above every completed request in the percentiles.
func TestFailuresMissEveryLimit(t *testing.T) {
	base := time.Unix(0, 0)
	var outs []outcome
	for i := 0; i < 98; i++ {
		outs = append(outs, outcome{due: base, sent: base, done: base.Add(time.Millisecond), ok: true, status: 200})
	}
	outs = append(outs,
		outcome{due: base, sent: base, done: base.Add(time.Microsecond), status: 429},
		outcome{due: base, sent: base, done: base.Add(time.Microsecond), status: 0},
	)
	ls := latencies(outs)
	if v, _ := nearestRank(append([]time.Duration(nil), ls...), 98); v != time.Millisecond {
		t.Errorf("p98 = %v, want the slowest completed request", v)
	}
	if v, _ := nearestRank(ls, 99); v != missed {
		t.Errorf("p99 = %v, want a miss: two of 100 requests failed", v)
	}
	var tl tally
	tl.add(outs)
	tl.check(true)
	tl.check(false)
	if tl.attempted != 102 || tl.failed != 3 {
		t.Errorf("tally = %+v, want 102 attempted, 3 failed", tl)
	}
}

// Latency runs from the due time, so a request sent late is charged for
// the wait; lag is how late it was sent.
func TestLatencyFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	o := outcome{due: due, sent: due.Add(30 * time.Millisecond), done: due.Add(32 * time.Millisecond), ok: true}
	if o.latency() != 32*time.Millisecond || o.lag() != 30*time.Millisecond {
		t.Errorf("latency %v lag %v, want 32ms and 30ms", o.latency(), o.lag())
	}
}

func TestSchedule(t *testing.T) {
	jobs := schedule(4, 200, func(i int) []*point { return nil })
	for i, j := range jobs {
		if want := time.Duration(i) * 5 * time.Millisecond; j.due != want {
			t.Errorf("job %d due %v, want %v", i, j.due, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// Self time counts overlapping children once and ignores the parts of
// children outside the parent.
func TestCovered(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := [][2]int64{{90, 110}, {105, 120}, {150, 160}, {155, 158}, {190, 250}, {300, 400}}
	// [100,120) + [150,160) + [190,200) = 20 + 10 + 10
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// outcome is one load-generator request's record. Latency runs from
// the request's due time, not from when it was sent, so a stalled
// server (or a late generator) is charged for every request that
// waited behind it.
type outcome struct {
	due, sent, done time.Time
	ok              bool // 2xx with a body that matched the references
	status          int  // HTTP status; 0 when the request never got one
}

// latency is the outcome's due-to-done time.
func (o outcome) latency() time.Duration { return o.done.Sub(o.due) }

// lag is how late the generator sent the request.
func (o outcome) lag() time.Duration { return o.sent.Sub(o.due) }

// missed is the latency a refused or failed request is charged with:
// larger than any limit, so it counts as missing every one.
const missed = time.Duration(math.MaxInt64)

// latencies returns the outcomes' due-to-done latencies with failed
// and refused requests charged as missed.
func latencies(outs []outcome) []time.Duration {
	ls := make([]time.Duration, len(outs))
	for i, o := range outs {
		if o.ok {
			ls[i] = o.latency()
		} else {
			ls[i] = missed
		}
	}
	return ls
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. It returns false for an empty sample, and
// sorts xs in place.
func nearestRank(xs []time.Duration, p float64) (time.Duration, bool) {
	if len(xs) == 0 || p <= 0 || p > 100 {
		return 0, false
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], true
}

// beyond is the number of samples ranked above the p-th percentile: a
// percentile is reported only when at least ten samples lie beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tally counts a phase's requests for the error ratio: every request
// attempted, and those that failed, were refused, or answered wrongly.
type tally struct{ attempted, failed int }

func (t *tally) add(outs []outcome) {
	for _, o := range outs {
		t.attempted++
		if !o.ok {
			t.failed++
		}
	}
}

// check records one correctness gate as an operation.
func (t *tally) check(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// median returns the median of xs (the mean of the middle pair for an
// even count), sorting xs in place; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms and us convert a duration to fractional milliseconds and
// microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

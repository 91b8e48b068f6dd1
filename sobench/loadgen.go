package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark drives its daemons with its own generator rather than
// cmd/soload: soload times each request from when it was sent (so a
// stall hides the wait it imposes on every later request) and opens one
// goroutine and connection per in-flight request. Here a request is
// timed from when it was due, and all load rides on at most nproc
// keep-alive connections, one per lane.

// job is one scheduled request.
type job struct {
	due time.Duration // offset from the phase start
	pts []*point
}

// lane is one client connection: a transport that never holds more
// than one connection open.
type lane struct{ client *http.Client }

// loadgen owns the lanes and counts the connections they dial.
type loadgen struct {
	url   string
	lanes []lane
	dials atomic.Int64
	tr    *tracer
	reqs  atomic.Int64
}

func newLoadgen(url string, n int, tr *tracer) *loadgen {
	g := &loadgen{url: url + "/v1/sweep", tr: tr}
	for i := 0; i < n; i++ {
		d := &net.Dialer{}
		g.lanes = append(g.lanes, lane{client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}}})
	}
	return g
}

func (g *loadgen) close() {
	for _, l := range g.lanes {
		l.client.CloseIdleConnections()
	}
}

// send posts one job on a lane and returns its outcome and body; the
// body is verified later, off the clock.
func (g *loadgen) send(l lane, j job, body []byte, due time.Time) (outcome, []byte) {
	o := outcome{due: due}
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		o.sent, o.done = time.Now(), time.Now()
		return o, nil
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if g.tr != nil {
		id = g.reqs.Add(1)
		req.Header.Set(requestHeader, strconv.FormatInt(id, 10))
	}
	o.sent = time.Now()
	resp, err := l.client.Do(req)
	var rbody []byte
	if err == nil {
		rbody, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
	}
	o.done = time.Now()
	o.ok = err == nil && o.status == http.StatusOK
	if g.tr != nil {
		keys := make([]string, len(j.pts))
		for i, p := range j.pts {
			keys[i] = p.key
		}
		g.tr.client(id, o, keys)
	}
	return o, rbody
}

// openLoop sends jobs (sorted by due time) on the given lanes: each
// free lane takes the next job and sends it at its due time, or at once
// if it is already late. Outcomes come back in job order, each verified
// against its points' references after the phase.
func (g *loadgen) openLoop(lanes []lane, jobs []job) []outcome {
	outs := make([]outcome, len(jobs))
	bodies := make([][]byte, len(jobs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l lane) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				body := sweepBody(jobs[i].pts)
				due := start.Add(jobs[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				outs[i], bodies[i] = g.send(l, jobs[i], body, due)
			}
		}(l)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].ok && !verifySweep(bodies[i], jobs[i].pts) {
			outs[i].ok = false
		}
	}
	return outs
}

// closedLoop keeps one request in flight on every lane until d has
// passed, each lane taking the next job in turn (cycling). A closed
// loop's request is due when it is sent.
func (g *loadgen) closedLoop(lanes []lane, jobs []job, d time.Duration) []outcome {
	var mu sync.Mutex
	var outs []outcome
	var bodies [][]byte
	var idx []int
	var next atomic.Int64
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l lane) {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)-1) % len(jobs)
				o, b := g.send(l, jobs[i], sweepBody(jobs[i].pts), time.Now())
				mu.Lock()
				outs, bodies, idx = append(outs, o), append(bodies, b), append(idx, i)
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	for k := range outs {
		if outs[k].ok && !verifySweep(bodies[k], jobs[idx[k]].pts) {
			outs[k].ok = false
		}
	}
	return outs
}

// schedule spaces n jobs evenly at rate per second, starting at offset
// 0, each carrying the next batch from pick.
func schedule(n int, rate float64, pick func(i int) []*point) []job {
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{due: time.Duration(float64(i) / rate * float64(time.Second)), pts: pick(i)}
	}
	return jobs
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/store"
)

// runner runs a deployment's phases and keeps what they measured.
type runner struct {
	e      *env
	pl     plan
	tr     *tracer
	rng    *rand.Rand
	digest string
	t      tally

	phase   atomic.Value // current phase name, for the sampler
	windows []window

	coldPasses, warmPasses []passStat
	read, mixedRead        []outcome
	writes, capacity       []outcome
	roundPPS               []float64 // phase capacity's points per second, per round
	busy                   map[string]time.Duration
	loadDials              int64
	overhead               float64
}

// window is one phase's interval in one round, and the counters around
// it.
type window struct {
	name          string
	start, end    time.Time
	before, after snapshot
}

// snapshot is every counter the deployment exposes, at one instant.
type snapshot struct {
	front, replicas exp.Stats
	store           store.Stats
	admit           admit.Stats
	cluster         cluster.Stats
	mallocs         uint64
	gcPause         uint64
}

func (e *env) snapshot() snapshot {
	s := snapshot{front: e.front.stack().eng.Stats(), admit: e.front.stack().ctrl.Stats()}
	for _, r := range e.replicas {
		s.replicas.Misses += r.stack().eng.Stats().Misses
	}
	if e.st != nil {
		s.store = e.st.Stats()
	}
	if e.coord != nil {
		s.cluster = e.coord.Stats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.gcPause = ms.Mallocs, ms.PauseTotalNs
	return s
}

// measure runs one phase between two snapshots and records its window.
// Every phase starts from a collected heap, so where the previous
// phase left the garbage collector does not leak into its figures.
func (r *runner) measure(name string, f func() error) (*window, error) {
	runtime.GC()
	r.phase.Store(name)
	w := window{name: name, before: r.e.snapshot(), start: time.Now()}
	err := f()
	w.end = time.Now()
	w.after = r.e.snapshot()
	r.tr.phase(name, w.start, w.end)
	r.windows = append(r.windows, w)
	r.phase.Store("")
	return &r.windows[len(r.windows)-1], err
}

// delta is what a window (or a phase's windows, summed) did at the
// front daemon and the replicas.
type delta struct {
	hits, misses, storeHits, remote int64
	simulated                       int64 // front and replica misses
	diskHits, diskMisses            int64
	dur                             time.Duration
}

func (w *window) delta() delta {
	b, a := w.before, w.after
	return delta{
		hits:       a.front.Hits - b.front.Hits,
		misses:     a.front.Misses - b.front.Misses,
		storeHits:  a.front.StoreHits - b.front.StoreHits,
		remote:     a.front.Remote - b.front.Remote,
		simulated:  (a.front.Misses - b.front.Misses) + (a.replicas.Misses - b.replicas.Misses),
		diskHits:   a.store.DiskHits - b.store.DiskHits,
		diskMisses: a.store.DiskMisses - b.store.DiskMisses,
		dur:        w.end.Sub(w.start),
	}
}

// phaseDelta sums a phase's windows over the rounds.
func (r *runner) phaseDelta(name string) delta {
	var s delta
	for i := range r.windows {
		if w := &r.windows[i]; w.name == name {
			d := w.delta()
			s.hits += d.hits
			s.misses += d.misses
			s.storeHits += d.storeHits
			s.remote += d.remote
			s.simulated += d.simulated
			s.diskHits += d.diskHits
			s.diskMisses += d.diskMisses
			s.dur += d.dur
		}
	}
	return s
}

// phases runs pl.rounds rounds of cold passes, warm passes, read, mixed
// and capacity, checking every output and every warm/cold label.
func (r *runner) phases() error {
	e, pl := r.e, r.pl
	if r.tr != nil {
		r.phase.Store("")
		s := e.startSampler(func() string { v, _ := r.phase.Load().(string); return v })
		defer func() { r.busy = s.close() }()
	}
	ctx := context.Background()
	g := newLoadgen(e.front.url, runtime.NumCPU(), r.tr)
	defer g.close()
	reads := r.readPicker()
	readLanes, writeLanes := g.lanes[:1], g.lanes[len(g.lanes)-1:]
	nw := pl.writesPerRound()

	want := int64(-1) // points a cold pass simulates, fixed by the first
	for round := 0; round < pl.rounds; round++ {
		_, err := r.measure("cold", func() error {
			for i := 0; i < pl.coldPasses; i++ {
				p, err := e.pass(ctx, cold, r.tr != nil)
				if err != nil {
					return err
				}
				if want < 0 {
					want = p.simulated
				}
				r.t.check(p.digest == r.digest && p.simulated == want && p.simulated > 0 && p.storeHits == 0)
				r.coldPasses = append(r.coldPasses, p)
			}
			return nil
		})
		if err != nil {
			return err
		}

		if _, err = r.measure("warm", func() error { return r.runWarm(ctx, pl.warmPasses) }); err != nil {
			return err
		}

		w, _ := r.measure("read", func() error {
			outs := g.openLoop(g.lanes, schedule(pl.readsIn(pl.read), pl.readRate, reads))
			r.t.add(outs)
			r.read = append(r.read, outs...)
			return nil
		})
		r.gateWarm(w)

		w, _ = r.measure("mixed", func() error {
			news := e.writes[round*nw : (round+1)*nw]
			done := make(chan []outcome)
			go func() {
				done <- g.openLoop(writeLanes, schedule(nw, pl.writeRate, func(i int) []*point { return news[i : i+1] }))
			}()
			rs := g.openLoop(readLanes, schedule(pl.readsIn(pl.mixed), pl.readRate, reads))
			ws := <-done
			r.t.add(rs)
			r.t.add(ws)
			r.mixedRead = append(r.mixedRead, rs...)
			r.writes = append(r.writes, ws...)
			return nil
		})
		// Reads stay warm; every write simulates exactly once — on the
		// cluster, on a replica after one route.
		d := w.delta()
		wantRemote := int64(0)
		if e.coord != nil {
			wantRemote = int64(nw)
		}
		r.t.check(d.simulated == int64(nw) && d.remote == wantRemote)

		capJobs := schedule(pl.readsIn(pl.read), pl.readRate, reads)
		var outs []outcome
		w, _ = r.measure("capacity", func() error {
			outs = g.closedLoop(g.lanes, capJobs, pl.capacity)
			return nil
		})
		r.t.add(outs)
		r.capacity = append(r.capacity, outs...)
		ok := 0
		for _, o := range outs {
			if o.ok {
				ok++
			}
		}
		r.roundPPS = append(r.roundPPS, float64(ok*pl.batch)/w.end.Sub(w.start).Seconds())
		r.gateWarm(w)
	}
	r.loadDials = g.dials.Load()

	r.report("cold", "cold", fmt.Sprintf("passes=%d simulated/pass=%d %s", len(r.coldPasses), want, passLine(r.coldPasses)))
	r.report("warm", "warm", fmt.Sprintf("passes=%d %s", len(r.warmPasses), passLine(r.warmPasses)))
	r.report("read", "warm", latencyLine("read", r.read))
	r.report("mixed", "warm reads, cold writes", latencyLine("read", r.mixedRead)+" "+latencyLine("write", r.writes))
	r.report("capacity", "warm", fmt.Sprintf("requests=%d conns=%d %.0f points/s (median of rounds %.0f)", len(r.capacity), len(g.lanes), r.capacityPPS(), r.roundPPS))
	if e.coord != nil {
		cs := e.coord.Stats()
		r.t.check(cs.LocalFallbacks == 0 && cs.Unroutable == 0)
		fmt.Fprintf(os.Stderr, "sobench: cluster routed=%d posts=%d local_fallbacks=%d unroutable=%d retries=%d\n",
			cs.Routed, cs.Posts, cs.LocalFallbacks, cs.Unroutable, cs.Retries)
	}
	if r.tr != nil {
		return r.measureOverhead(ctx)
	}
	return nil
}

// runWarm runs n warm suite passes; each must simulate nothing.
func (r *runner) runWarm(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		p, err := r.e.pass(ctx, warm, r.tr != nil)
		if err != nil {
			return err
		}
		r.t.check(p.digest == r.digest && p.simulated == 0)
		r.warmPasses = append(r.warmPasses, p)
	}
	return nil
}

// gateWarm fails a warm sweep phase that simulated or routed anything.
func (r *runner) gateWarm(w *window) {
	d := w.delta()
	r.t.check(d.simulated == 0 && d.remote == 0)
}

// measureOverhead alternates untraced and traced warm passes: the ratio
// of their medians is the tracing overhead on suite_warm_ms.
func (r *runner) measureOverhead(ctx context.Context) error {
	var plain, traced []float64
	for i := 0; i < r.pl.overheadN; i++ {
		for _, on := range []bool{false, true} {
			p, err := r.e.pass(ctx, warm, on)
			if err != nil {
				return err
			}
			r.t.check(p.digest == r.digest && p.simulated == 0)
			if on {
				traced = append(traced, ms(p.wall))
			} else {
				plain = append(plain, ms(p.wall))
			}
		}
	}
	r.overhead = median(traced) / median(plain)
	fmt.Fprintf(os.Stderr, "sobench: warm pass untraced %.3fms traced %.3fms (median of %d each)\n",
		median(plain), median(traced), r.pl.overheadN)
	return nil
}

// readPicker returns the read stream: batches of suite points taken
// from successive seeded permutations of the suite.
func (r *runner) readPicker() func(int) []*point {
	var stream []*point
	return func(int) []*point {
		for len(stream) < r.pl.batch {
			for _, i := range r.rng.Perm(len(r.e.suite)) {
				stream = append(stream, r.e.suite[i])
			}
		}
		b := stream[:r.pl.batch:r.pl.batch]
		stream = stream[r.pl.batch:]
		return b
	}
}

// capacityPPS is the median over rounds of phase capacity's
// throughput: a stretch of host contention that slows one round cannot
// move it.
func (r *runner) capacityPPS() float64 {
	return median(append([]float64(nil), r.roundPPS...))
}

// report prints a phase's label beside its measured memo and store hit
// ratios at the front daemon — so a phase called warm shows that it
// was — and its figures.
func (r *runner) report(name, state, detail string) {
	d := r.phaseDelta(name)
	memo := ratio(float64(d.hits), float64(d.hits+d.misses+d.storeHits+d.remote))
	disk := ratio(float64(d.diskHits), float64(d.diskHits+d.diskMisses))
	fmt.Fprintf(os.Stderr, "sobench: phase %-8s [%s] %.3fs over %d rounds, front memo_hit_ratio=%.3f store_hit_ratio=%.3f simulated=%d remote=%d %s\n",
		name, state, d.dur.Seconds(), r.pl.rounds, memo, disk, d.simulated, d.remote, detail)
}

// passLine summarizes pass wall times.
func passLine(ps []passStat) string {
	ws := make([]float64, len(ps))
	for i, p := range ps {
		ws[i] = ms(p.wall)
	}
	med := median(ws) // sorts ws
	return fmt.Sprintf("wall min=%.1fms median=%.1fms max=%.1fms", ws[0], med, ws[len(ws)-1])
}

// latencyLine formats a phase's nearest-rank percentiles with the sample
// count beside them; a percentile is shown only with at least ten
// samples beyond it.
func latencyLine(name string, outs []outcome) string {
	ls := latencies(outs)
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d", name, len(ls))
	for _, p := range []float64{50, 90, 95, 99} {
		if v, ok := nearestRank(ls, p); ok && beyond(len(ls), p) >= 10 {
			fmt.Fprintf(&b, " p%s=%.3fms", strconv.FormatFloat(p, 'f', -1, 64), ms(v))
		}
	}
	return b.String()
}

// percentileMS is a phase's nearest-rank percentile in milliseconds.
func percentileMS(outs []outcome, p float64) float64 {
	v, _ := nearestRank(latencies(outs), p)
	return ms(v)
}

func (r *runner) endToEnd(m map[string]metric, setupS float64) {
	var cold, warm []float64
	for _, p := range r.coldPasses {
		cold = append(cold, p.wall.Seconds())
	}
	for _, p := range r.warmPasses {
		warm = append(warm, ms(p.wall))
	}
	m["setup_s"] = metric{setupS, "s"}
	m["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
	m["ok_ratio"] = metric{float64(r.t.attempted-r.t.failed) / float64(r.t.attempted), "ratio"}
	m["suite_cold_s"] = metric{median(cold), "s"}
	m["suite_warm_ms"] = metric{median(warm), "ms"}
	m["read_p50_ms"] = metric{percentileMS(r.read, 50), "ms"}
	m["mixed_read_p50_ms"] = metric{percentileMS(r.mixedRead, 50), "ms"}
	m["write_p50_ms"] = metric{percentileMS(r.writes, 50), "ms"}
	m["capacity_pps"] = metric{r.capacityPPS(), "points/s"}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

package main

import (
	"runtime"
	"time"
)

// timed is the set of phases whose spans count toward per-layer
// metrics; set-up and the overhead passes are outside it.
var timed = []string{"cold", "warm", "read", "mixed", "capacity"}

// perLayer derives every per-layer metric from the traced run's spans
// and counters. A layer the workload bypasses reads 0 (cluster on node,
// store on cluster).
func (r *runner) perLayer(m map[string]metric, storeOpenS float64) {
	s := r.tr.analyze()
	e := r.e
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var inTimed []span
	for _, ph := range timed {
		for _, layer := range []string{"engine", "store.load", "store.save", "route"} {
			inTimed = append(inTimed, s.in(layer, ph)...)
		}
	}
	count := map[string]int{}
	var waitSum time.Duration
	var loads, saves []float64
	var hops []time.Duration
	for _, sp := range inTimed {
		switch sp.Layer {
		case "engine":
			count[sp.Source]++
			if sp.Source == "simulated" {
				waitSum += time.Duration(sp.Wait)
			}
		case "store.load":
			loads = append(loads, us(time.Duration(sp.dur())))
		case "store.save":
			saves = append(saves, us(time.Duration(sp.dur())))
		case "route":
			hops = append(hops, time.Duration(sp.dur()))
		}
	}

	// sim: the kernel.
	var points int64
	for _, p := range append(append([]passStat(nil), r.coldPasses...), r.warmPasses...) {
		points += p.simulated
	}
	for _, ph := range []string{"read", "mixed", "capacity"} {
		points += r.phaseDelta(ph).simulated
	}
	put("sim.points", float64(points), "count")
	var stat, structural []float64
	for _, p := range append(append([]*point(nil), e.suite...), e.writes...) {
		if p.structural {
			structural = append(structural, ms(p.refTime))
		} else {
			stat = append(stat, ms(p.refTime))
		}
	}
	put("sim.stat_ms_per_point", mean(stat), "ms")
	put("sim.struct_ms_per_point", mean(structural), "ms")
	var busy time.Duration
	for _, ph := range timed {
		busy += r.busy[ph]
	}
	put("sim.busy_s", busy.Seconds(), "s")
	keyUS, wireUS := identityCost(e.suite)
	put("sim.key_us", keyUS, "us")
	put("sim.wire_us", wireUS, "us")

	// engine: memo, store tier, routing, worker pool.
	hits, misses := count["memo"], count["simulated"]+count["seeded"]
	total := hits + misses + count["store"] + count["remote"]
	put("engine.hits", float64(hits), "count")
	put("engine.misses", float64(misses), "count")
	put("engine.store_hits", float64(count["store"]), "count")
	put("engine.remote", float64(count["remote"]), "count")
	put("engine.hit_ratio", ratio(float64(hits), float64(total)), "ratio")
	put("engine.queue_wait_ms", ratio(ms(waitSum), float64(count["simulated"])), "ms")
	var memoHits []float64
	for _, sp := range s.in("engine", "read") {
		if sp.Source == "memo" {
			memoHits = append(memoHits, us(time.Duration(sp.dur())))
		}
	}
	put("engine.memo_hit_us", median(memoHits), "us")
	var coldWall time.Duration
	for _, p := range r.coldPasses {
		coldWall += p.wall
	}
	workers := runtime.GOMAXPROCS(0) * max(1, len(e.replicas))
	put("engine.pool_utilization", ratio(r.busy["cold"].Seconds(), float64(workers)*coldWall.Seconds()), "ratio")

	// tier: the evaluator under the figure generators.
	var esc, scored int64
	for _, p := range append(append([]passStat(nil), r.coldPasses...), r.warmPasses...) {
		esc += p.escalated
		scored += p.scored
	}
	put("tier.escalation_ratio", ratio(float64(esc), float64(scored)), "ratio")
	var tierSelf time.Duration
	var tierPoints int
	for _, sp := range s.in("tier", "warm") {
		tierSelf += time.Duration(s.engineSelf(sp, sp.keys))
		tierPoints += sp.Points
	}
	put("tier.self_us_per_point", ratio(us(tierSelf), float64(tierPoints)), "us")

	// store: the persistent log (node only).
	put("store.open_s", storeOpenS, "s")
	put("store.load_us", mean(loads), "us")
	put("store.save_us", mean(saves), "us")
	var dh, dm int64
	for _, ph := range timed {
		d := r.phaseDelta(ph)
		dh += d.diskHits
		dm += d.diskMisses
	}
	put("store.disk_hit_ratio", ratio(float64(dh), float64(dh+dm)), "ratio")
	bpr := 0.0
	if e.st != nil {
		st := e.st.Stats()
		bpr = ratio(float64(st.Bytes), float64(st.Entries))
	}
	put("store.bytes_per_record", bpr, "bytes")

	// figures: a warm pass's own time, outside tier calls.
	tierByParent := map[int64][][2]int64{}
	for _, sp := range s.byLayer["tier"] {
		tierByParent[sp.Parent] = append(tierByParent[sp.Parent], [2]int64{sp.Start, sp.End})
	}
	var figSelf []float64
	for _, sp := range s.in("pass", "warm") {
		figSelf = append(figSelf, ms(time.Duration(sp.dur()-covered(sp, tierByParent[sp.ID]))))
	}
	put("figures.self_ms", mean(figSelf), "ms")

	// serve and admit: phase read's requests, joined by request ID.
	serveByReq := map[int64]span{}
	for _, sp := range s.byLayer["serve"] {
		serveByReq[sp.Req] = sp
	}
	var handler, self time.Duration
	var readPoints int
	var transport, admitWait []float64
	for _, c := range s.in("client", "read") {
		sv, okS := serveByReq[c.Req]
		h, okH := s.http[c.Req]
		if !okS || !okH {
			continue
		}
		handler += time.Duration(sv.dur())
		self += time.Duration(s.engineSelf(sv, c.keys))
		readPoints += c.Points
		transport = append(transport, us(time.Duration(c.dur()-h.dur())))
		admitWait = append(admitWait, us(time.Duration(sv.Start-h.Start)))
	}
	put("serve.handler_us_per_point", ratio(us(handler), float64(readPoints)), "us")
	put("serve.self_us_per_point", ratio(us(self), float64(readPoints)), "us")
	put("serve.transport_us", mean(transport), "us")
	non2xx := 0
	for _, outs := range [][]outcome{r.read, r.mixedRead, r.writes, r.capacity} {
		for _, o := range outs {
			if o.status < 200 || o.status > 299 {
				non2xx++
			}
		}
	}
	put("serve.non2xx", float64(non2xx), "count")
	put("admit.wait_us", mean(admitWait), "us")
	var admitted, shed int64
	for _, w := range r.windows {
		b, a := w.before.admit, w.after.admit
		admitted += a.Admitted - b.Admitted
		shed += (a.RateLimited + a.ShedQueueFull + a.ShedDraining) - (b.RateLimited + b.ShedQueueFull + b.ShedDraining)
	}
	put("admit.admitted", float64(admitted), "count")
	put("admit.shed", float64(shed), "count")

	// cluster: the coordinator→replica hop (cluster only).
	p50, _ := nearestRank(append([]time.Duration(nil), hops...), 50)
	p99, _ := nearestRank(hops, 99)
	put("cluster.hop_ms_p50", ms(p50), "ms")
	put("cluster.hop_ms_p99", ms(p99), "ms")
	var posts, routed, retries, fallbacks, unroutable int64
	sent := make([]int64, len(e.replicas))
	for _, w := range r.windows {
		b, a := w.before.cluster, w.after.cluster
		posts += a.Posts - b.Posts
		routed += a.Routed - b.Routed
		retries += a.Retries - b.Retries
		fallbacks += a.LocalFallbacks - b.LocalFallbacks
		unroutable += a.Unroutable - b.Unroutable
		for i := range sent {
			if i < len(a.Peers) && i < len(b.Peers) {
				sent[i] += a.Peers[i].Sent - b.Peers[i].Sent
			}
		}
	}
	put("cluster.posts", float64(posts), "count")
	put("cluster.points_per_post", ratio(float64(routed), float64(posts)), "points")
	put("cluster.retries", float64(retries), "count")
	put("cluster.local_fallbacks", float64(fallbacks), "count")
	put("cluster.unroutable", float64(unroutable), "count")
	var maxSent, sumSent int64
	for _, n := range sent {
		maxSent = max(maxSent, n)
		sumSent += n
	}
	put("cluster.replica_skew", ratio(float64(maxSent)*float64(len(sent)), float64(sumSent)), "ratio")

	// runtime: the whole process (servers and load generator together).
	var gcPause, readAllocs uint64
	for _, w := range r.windows {
		gcPause += w.after.gcPause - w.before.gcPause
		if w.name == "read" {
			readAllocs += w.after.mallocs - w.before.mallocs
		}
	}
	put("runtime.allocs_per_read_point", ratio(float64(readAllocs), float64(len(r.read)*r.pl.batch)), "allocs")
	put("runtime.gc_pause_ms", ms(time.Duration(gcPause)), "ms")

	// load generator: how late it sent, and on how many connections.
	var lags []time.Duration
	for _, outs := range [][]outcome{r.read, r.mixedRead, r.writes} {
		for _, o := range outs {
			lags = append(lags, o.lag())
		}
	}
	lag, _ := nearestRank(lags, 99)
	put("loadgen.lag_p99_ms", ms(lag), "ms")
	put("loadgen.conns", float64(r.loadDials), "count")
	put("trace.overhead_ratio", r.overhead, "ratio")
}

// identityCost times sim.Config.Key and MarshalWire per call over the
// suite's configurations.
func identityCost(pts []*point) (keyUS, wireUS float64) {
	const rounds = 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, p := range pts {
			if p.structural {
				_ = p.st.Key()
			} else {
				_ = p.sim.Key()
			}
		}
	}
	keyUS = us(time.Since(start)) / float64(rounds*len(pts))
	start = time.Now()
	for i := 0; i < rounds; i++ {
		for _, p := range pts {
			if p.structural {
				_, _ = p.st.MarshalWire()
			} else {
				_, _ = p.sim.MarshalWire()
			}
		}
	}
	wireUS = us(time.Since(start)) / float64(rounds*len(pts))
	return keyUS, wireUS
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload did not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

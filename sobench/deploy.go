package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/serve"
	"scaleout/internal/store"
	"scaleout/internal/tier"
)

// Daemon settings are cmd/soprocd's flag defaults.
const (
	memoCap    = 16384
	queueDepth = 128
)

// stack is one daemon's state: the engine and admission controller
// behind its handler, built with soprocd's constructors.
type stack struct {
	eng  *exp.Engine
	ctrl *admit.Controller
	h    http.Handler
}

// daemon is one soprocd on a loopback listener, in this process. A
// replica's stack can be replaced (restart) while its address stays.
type daemon struct {
	cur atomic.Pointer[stack]
	hs  *http.Server
	url string
	// build makes a fresh stack; restart swaps one in.
	build func() *stack
	done  chan struct{}
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) { d.cur.Load().h.ServeHTTP(w, r) }

func (d *daemon) restart() { d.cur.Store(d.build()) }

func (d *daemon) stack() *stack { return d.cur.Load() }

// startDaemon builds a daemon the way soprocd does — serve.New over a
// bounded engine, an optional store and cluster route, admission
// control in front — and serves it on 127.0.0.1.
func startDaemon(tr *tracer, st *store.Store, coord *cluster.Coordinator) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.build = func() *stack {
		eng := exp.NewBounded(0, memoCap)
		tr.hook(eng)
		srv := serve.New(eng)
		if st != nil {
			eng.SetStore(tr.store(st))
			srv.SetStoreStats(func() any { return st.Stats() })
		}
		if coord != nil {
			eng.SetRoute(tr.route(coord.Route))
			srv.SetClusterStats(func() any { return coord.Stats() })
		}
		ctrl := admit.New(admit.Options{QueueDepth: queueDepth})
		srv.SetAdmitStats(func() any { return ctrl.Stats() })
		h := tr.outer(ctrl.Middleware(tr.handler(srv.Handler())))
		return &stack{eng: eng, ctrl: ctrl, h: h}
	}
	d.restart()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() {
		defer close(d.done)
		if err := d.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "sobench: daemon %s: %v\n", d.url, err)
		}
	}()
	return d, nil
}

func (d *daemon) close() {
	d.hs.Close()
	<-d.done
}

// env is one workload's deployment: the figure suite's points, the new
// points the sweep will write, and the daemons serving them.
//
// node: one daemon with a persistent store, whose log also backs the
// warm suite passes. cluster: a coordinator daemon in front of two
// store-less replicas; suite passes run through the same coordinator.
type env struct {
	tr  *tracer
	dir string

	suite  []*point
	writes []*point
	warmup [][]byte // daemon warm-up responses, verified once references exist

	st        *store.Store
	storeOpen time.Duration
	coord     *cluster.Coordinator
	front     *daemon
	replicas  []*daemon

	passEng atomic.Pointer[exp.Engine] // the running suite pass's engine
}

// setup builds the deployment from scratch and brings it to its warm
// state: inputs generated, store opened, servers listening, the suite
// simulated once (filling the store or the replicas), and the front
// daemon's memo holding every suite point.
func setup(workload string, seed int64, nWrites int, dir string, tr *tracer, digest string) (*env, error) {
	e := &env{tr: tr, dir: dir}
	var err error
	if e.suite, err = suitePoints(); err != nil {
		return nil, err
	}
	if e.writes, err = newPoints(e.suite, nWrites, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	switch workload {
	case "node":
		start := time.Now()
		if e.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
			return nil, err
		}
		e.storeOpen = time.Since(start)
		if e.front, err = startDaemon(tr, e.st, nil); err != nil {
			return nil, err
		}
	case "cluster":
		var peers []string
		for i := 0; i < 2; i++ {
			r, err := startDaemon(tr, nil, nil)
			if err != nil {
				return nil, err
			}
			e.replicas = append(e.replicas, r)
			peers = append(peers, r.url)
		}
		if e.coord, err = cluster.New(peers); err != nil {
			return nil, err
		}
		if e.front, err = startDaemon(tr, nil, e.coord); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	p, err := e.pass(context.Background(), fill, false)
	if err != nil {
		return nil, err
	}
	if p.digest != digest {
		return nil, fmt.Errorf("set-up suite pass: digest %s, want %s", p.digest, digest)
	}
	cl := &http.Client{}
	defer cl.CloseIdleConnections()
	for i := 0; i < len(e.suite); i += 64 {
		resp, err := cl.Post(e.front.url+"/v1/sweep", "application/json",
			bytes.NewReader(sweepBody(e.suite[i:min(i+64, len(e.suite))])))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("warming the daemon: status %d: %v", resp.StatusCode, err)
		}
		e.warmup = append(e.warmup, body)
	}
	return e, nil
}

func (e *env) close() {
	if e.front != nil {
		e.front.close()
	}
	for _, r := range e.replicas {
		r.close()
	}
	if e.st != nil {
		e.st.Close()
	}
	os.RemoveAll(e.dir)
}

// verifyWarmup checks the set-up sweep responses against references.
func (e *env) verifyWarmup() bool {
	for k, body := range e.warmup {
		i := k * 64
		if !verifySweep(body, e.suite[i:min(i+64, len(e.suite))]) {
			return false
		}
	}
	return true
}

// passStat is one suite regeneration and what it cost each layer.
type passStat struct {
	wall   time.Duration
	digest string
	// simulated counts points computed anywhere (the pass engine and,
	// on cluster, the replicas); storeHits are the pass engine's.
	simulated, storeHits int64
	escalated, scored    int64
}

// Suite pass modes.
const (
	fill = iota // set-up: cold, and the node's store records every point
	cold        // nothing cached: no store; on cluster, restarted replicas
	warm        // every point from the store (node) or warm replicas (cluster)
)

// pass regenerates the suite on a fresh engine in the given mode;
// traced selects the tracing wrappers for this pass.
func (e *env) pass(ctx context.Context, mode int, traced bool) (passStat, error) {
	tr := e.tr
	if !traced {
		tr = nil
	}
	eng := exp.New(0)
	tr.hook(eng)
	before := e.replicaMisses()
	switch {
	case e.coord != nil:
		if mode == cold {
			for _, r := range e.replicas {
				r.restart()
			}
			before = 0
		}
		eng.SetRoute(tr.route(e.coord.Route))
	case mode != cold:
		eng.SetStore(tr.store(e.st))
	}
	e.passEng.Store(eng)
	defer e.passEng.Store(nil)
	ev := tier.New(nil, tier.Exact)
	var done func(int, []string)
	if tr != nil {
		ctx, done = tr.open(ctx, "pass", 0)
	}
	wall, digest, err := regenerate(ctx, eng, tr.tier(ev))
	if done != nil {
		done(0, nil)
	}
	es, ts := eng.Stats(), ev.Stats()
	return passStat{
		wall: wall, digest: digest,
		simulated: es.Misses + e.replicaMisses() - before,
		storeHits: es.StoreHits,
		escalated: ts.Escalated, scored: ts.Scored,
	}, err
}

func (e *env) replicaMisses() int64 {
	var n int64
	for _, r := range e.replicas {
		n += r.stack().eng.Stats().Misses
	}
	return n
}

// engines lists every engine alive right now.
func (e *env) engines() []*exp.Engine {
	out := []*exp.Engine{e.front.stack().eng}
	for _, r := range e.replicas {
		out = append(out, r.stack().eng)
	}
	if p := e.passEng.Load(); p != nil {
		out = append(out, p)
	}
	return out
}

// sampler integrates the engines' in-flight computations over time:
// worker-seconds spent computing, whatever path (per point, or a
// shape-batched structural chunk) ran them.
type sampler struct {
	busy map[string]time.Duration // by phase; read after close
	stop chan struct{}
	done chan struct{}
}

func (e *env) startSampler(phase func() string) *sampler {
	s := &sampler{busy: map[string]time.Duration{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		const tick = 500 * time.Microsecond
		t := time.NewTicker(tick)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				var n int64
				for _, eng := range e.engines() {
					n += eng.Stats().InFlight
				}
				s.busy[phase()] += time.Duration(n) * now.Sub(last)
				last = now
			}
		}
	}()
	return s
}

func (s *sampler) close() map[string]time.Duration {
	close(s.stop)
	<-s.done
	return s.busy
}

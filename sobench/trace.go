package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/exp/engine"
	"scaleout/internal/metrics"
	"scaleout/internal/sim"
	"scaleout/internal/store"
)

// requestHeader carries the load generator's request ID to the
// benchmark's outer middleware, which puts it on the request context so
// every span of the request shares it.
const requestHeader = "X-Sobench-Request"

// span is one call into a layer, recorded from outside the layer by
// wrapping one of the seams the program exposes. Times are nanoseconds
// since the tracer started. Seams without a context (store Load/Save,
// the engine decision hook) record the point key instead of a parent;
// analysis joins them to the spans whose calls covered that key.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Points int    `json:"points,omitempty"`
	Source string `json:"source,omitempty"`
	Wait   int64  `json:"queue_wait_ns,omitempty"`
	Status int    `json:"status,omitempty"`
	Key    string `json:"key,omitempty"` // metrics.KeyFingerprint of key, filled on write

	key  string   // the point a keyed span is about
	keys []string // the points a tier, client or serve span covered
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer is the untraced run: every wrapper returns the seam
// unchanged.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu     sync.Mutex
	spans  []span
	phases map[string][][2]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), phases: make(map[string][][2]int64)}
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.t0)) }
func (t *tracer) now() int64            { return t.at(time.Now()) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phase records a named measurement window.
func (t *tracer) phase(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phases[name] = append(t.phases[name], [2]int64{t.at(start), t.at(end)})
	t.mu.Unlock()
}

type spanRef struct{ id, req int64 }
type spanKey struct{}

func refFrom(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// open starts a span as a child of the context's span and returns the
// child context and the function that records it.
func (t *tracer) open(ctx context.Context, layer string, req int64) (context.Context, func(points int, keys []string)) {
	parent := refFrom(ctx)
	if req == 0 {
		req = parent.req
	}
	id := t.ids.Add(1)
	start := t.now()
	ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req})
	return ctx, func(points int, keys []string) {
		t.add(span{ID: id, Parent: parent.id, Req: req, Layer: layer,
			Start: start, End: t.now(), Points: points, keys: keys})
	}
}

// tier wraps an exp.Tier (the tier.Evaluator under the figure
// generators) with a span per batch.
func (t *tracer) tier(ev exp.Tier) exp.Tier {
	if t == nil {
		return ev
	}
	return tracedTier{t, ev}
}

type tracedTier struct {
	t  *tracer
	ev exp.Tier
}

func (w tracedTier) Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		keys[i] = c.Key()
	}
	ctx, done := w.t.open(ctx, "tier", 0)
	res, err := w.ev.Sims(ctx, cfgs)
	done(len(cfgs), keys)
	return res, err
}

func (w tracedTier) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		keys[i] = c.Key()
	}
	ctx, done := w.t.open(ctx, "tier", 0)
	res, err := w.ev.Structurals(ctx, cfgs)
	done(len(cfgs), keys)
	return res, err
}

// store wraps the persistent store installed with Engine.SetStore.
func (t *tracer) store(st *store.Store) engine.Store {
	if t == nil {
		return st
	}
	return tracedStore{t, st}
}

type tracedStore struct {
	t  *tracer
	st *store.Store
}

func (w tracedStore) Load(key string) (any, bool) {
	start := w.t.now()
	v, ok := w.st.Load(key)
	w.t.add(span{ID: w.t.ids.Add(1), Layer: "store.load", Start: start, End: w.t.now(), key: key})
	return v, ok
}

func (w tracedStore) Save(key string, val any) {
	start := w.t.now()
	w.st.Save(key, val)
	w.t.add(span{ID: w.t.ids.Add(1), Layer: "store.save", Start: start, End: w.t.now(), key: key})
}

// route wraps the cluster coordinator's engine Route: one span per
// point shipped to a replica, the coordinator→replica hop.
func (t *tracer) route(r engine.Route) engine.Route {
	if t == nil {
		return r
	}
	return func(ctx context.Context, key string, payload any) (any, bool, error) {
		ctx, done := t.open(ctx, "route", 0)
		v, handled, err := r(ctx, key, payload)
		if handled {
			done(1, []string{key})
		}
		return v, handled, err
	}
}

// hook installs a decision hook on eng: one keyed span per point the
// engine resolved, covering the resolution's latency.
func (t *tracer) hook(eng *exp.Engine) {
	if t == nil {
		return
	}
	eng.SetDecisionHook(func(d engine.Decision) {
		end := t.now()
		t.add(span{ID: t.ids.Add(1), Layer: "engine", Start: end - int64(d.Latency), End: end,
			Source: d.Source, Wait: int64(d.QueueWait), key: d.Key})
	})
}

// outer is the benchmark's outermost middleware, in front of the
// admission controller: it takes the request ID the load generator
// sent and opens the request's server-side span.
func (t *tracer) outer(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
		ctx, done := t.open(r.Context(), "http", req)
		next.ServeHTTP(w, r.WithContext(ctx))
		done(0, nil)
	})
}

// handler sits between the admission controller and serve's handler.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, done := t.open(r.Context(), "serve", 0)
		next.ServeHTTP(w, r.WithContext(ctx))
		done(0, nil)
	})
}

// client records the load generator's view of one request.
func (t *tracer) client(req int64, o outcome, keys []string) {
	if t == nil {
		return
	}
	t.add(span{ID: t.ids.Add(1), Req: req, Layer: "client", Start: t.at(o.sent), End: t.at(o.done),
		Points: len(keys), Status: o.status, keys: keys})
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		s.Key = metrics.KeyFingerprint(s.key)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSet is the analysis view of a finished trace.
type spanSet struct {
	byLayer map[string][]span
	engine  map[string][]span // engine decisions by point key, by start
	http    map[int64]span    // outer spans by request ID
	phases  map[string][][2]int64
}

func (t *tracer) analyze() *spanSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &spanSet{byLayer: map[string][]span{}, engine: map[string][]span{},
		http: map[int64]span{}, phases: t.phases}
	for _, sp := range t.spans {
		s.byLayer[sp.Layer] = append(s.byLayer[sp.Layer], sp)
		switch sp.Layer {
		case "engine":
			s.engine[sp.key] = append(s.engine[sp.key], sp)
		case "http":
			s.http[sp.Req] = sp
		}
	}
	for _, l := range s.engine {
		sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	}
	return s
}

// in filters a layer's spans to those that started inside one of a
// phase's windows.
func (s *spanSet) in(layer, phase string) []span {
	var out []span
	for _, sp := range s.byLayer[layer] {
		for _, w := range s.phases[phase] {
			if sp.Start >= w[0] && sp.Start < w[1] {
				out = append(out, sp)
				break
			}
		}
	}
	return out
}

// covered returns how much of parent's interval the given intervals
// cover, counting overlapping intervals once.
func covered(parent span, kids [][2]int64) int64 {
	var iv [][2]int64
	for _, k := range kids {
		a, b := max(k[0], parent.Start), min(k[1], parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// engineSelf is a span's self time with respect to the engine: its
// duration minus the part covered by engine decisions for its keys that
// fell inside it.
func (s *spanSet) engineSelf(parent span, keys []string) int64 {
	var kids [][2]int64
	for _, k := range keys {
		for _, d := range s.engine[k] {
			if d.Start > parent.End {
				break
			}
			if d.Start >= parent.Start && d.End <= parent.End {
				kids = append(kids, [2]int64{d.Start, d.End})
			}
		}
	}
	return parent.dur() - covered(parent, kids)
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/serve"
	"scaleout/internal/sim"
)

// point is one simulator configuration the benchmark sends, with its
// wire form (what the program receives) and its reference result.
type point struct {
	key        string
	structural bool
	sim        sim.Config
	st         sim.StructuralConfig
	frag       []byte // {"config":<wire>} — one element of a sweep request

	refSim    sim.Result
	refSt     sim.StructuralResult
	refTime   time.Duration // direct kernel call time for the reference
	refFailed error
}

// collector implements exp.Tier by recording every configuration batch
// and answering with zero results: installed under the figure
// generators it enumerates the suite's simulator points without
// simulating any.
type collector struct {
	mu      sync.Mutex
	sims    map[string]sim.Config
	structs map[string]sim.StructuralConfig
}

func (c *collector) Sims(_ context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cfg := range cfgs {
		c.sims[cfg.Key()] = cfg
	}
	return make([]sim.Result, len(cfgs)), nil
}

func (c *collector) Structurals(_ context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cfg := range cfgs {
		c.structs[cfg.Key()] = cfg
	}
	return make([]sim.StructuralResult, len(cfgs)), nil
}

// suitePoints enumerates the figure suite's distinct simulator points
// in key order.
func suitePoints() ([]*point, error) {
	col := &collector{sims: map[string]sim.Config{}, structs: map[string]sim.StructuralConfig{}}
	ctx := exp.WithTier(exp.WithEngine(context.Background(), exp.New(0)), col)
	if _, err := figures.RunAllContext(ctx); err != nil {
		return nil, fmt.Errorf("enumerating the figure suite: %w", err)
	}
	var pts []*point
	for k, c := range col.sims {
		pts = append(pts, &point{key: k, sim: c})
	}
	for k, c := range col.structs {
		pts = append(pts, &point{key: k, structural: true, st: c})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	for _, p := range pts {
		if err := p.encode(); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// newPoints derives n points the daemon has never seen: n suite
// configurations spread evenly over the suite (the same ones for every
// seed, so every seed writes the same mix of kernels), in a seeded
// order, each with a fresh seed drawn from rng.
func newPoints(suite []*point, n int, rng *rand.Rand) ([]*point, error) {
	seen := make(map[string]bool, len(suite)+n)
	for _, p := range suite {
		seen[p.key] = true
	}
	out := make([]*point, 0, n)
	for _, k := range rng.Perm(n) {
		base := suite[k*len(suite)/n]
		p := &point{structural: base.structural, sim: base.sim, st: base.st}
		for p.key == "" || seen[p.key] {
			seed := rng.Uint64()>>1 | 1<<40 // never a suite seed
			if p.structural {
				p.st.Seed = seed
				p.key = p.st.Key()
			} else {
				p.sim.Seed = seed
				p.key = p.sim.Key()
			}
		}
		seen[p.key] = true
		if err := p.encode(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (p *point) encode() error {
	var wire []byte
	var err error
	if p.structural {
		wire, err = p.st.MarshalWire()
	} else {
		wire, err = p.sim.MarshalWire()
	}
	if err != nil {
		return fmt.Errorf("encoding %s: %w", p.key, err)
	}
	p.frag, err = json.Marshal(serve.SweepPoint{Config: wire})
	return err
}

// computeRefs runs every point directly on the kernel, one goroutine
// per CPU, outside any timed window.
func computeRefs(pts []*point) error {
	var wg sync.WaitGroup
	work := make(chan *point)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				start := time.Now()
				if p.structural {
					p.refSt, p.refFailed = sim.RunStructural(p.st)
				} else {
					p.refSim, p.refFailed = sim.Run(p.sim)
				}
				p.refTime = time.Since(start)
			}
		}()
	}
	for _, p := range pts {
		work <- p
	}
	close(work)
	wg.Wait()
	for _, p := range pts {
		if p.refFailed != nil {
			return fmt.Errorf("reference for %s: %w", p.key, p.refFailed)
		}
	}
	return nil
}

// matches reports whether a sweep result equals the point's reference.
func (p *point) matches(r serve.SweepResult) bool {
	if p.structural {
		return r.Kind == "structural" && r.Structural != nil && *r.Structural == p.refSt
	}
	return r.Kind == "sim" && r.Sim != nil && *r.Sim == p.refSim
}

// sweepBody assembles a /v1/sweep request from points' fragments.
func sweepBody(pts []*point) []byte {
	n := len(`{"points":[]}`) + len(pts)
	for _, p := range pts {
		n += len(p.frag)
	}
	b := make([]byte, 0, n)
	b = append(b, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.frag...)
	}
	return append(b, `]}`...)
}

// verifySweep checks a /v1/sweep response body against the references
// of the points the request carried.
func verifySweep(body []byte, pts []*point) bool {
	var resp serve.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != len(pts) {
		return false
	}
	for i, p := range pts {
		if !p.matches(resp.Results[i]) {
			return false
		}
	}
	return true
}

// suiteDigest hashes the whole suite as the CLI renders it, in both
// formats: any change to any cell of any figure changes it.
func suiteDigest(tables []figures.Table) string {
	h := sha256.New()
	for _, t := range tables {
		fmt.Fprintln(h, t.String())
		fmt.Fprintln(h, t.CSV())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// regenerate runs the whole figure suite on eng through the tier
// evaluator ev, and returns its wall time and digest.
func regenerate(ctx context.Context, eng *exp.Engine, ev exp.Tier) (time.Duration, string, error) {
	ctx = exp.WithTier(exp.WithEngine(ctx, eng), ev)
	start := time.Now()
	tables, err := figures.RunAllContext(ctx)
	wall := time.Since(start)
	if err != nil {
		return wall, "", err
	}
	return wall, suiteDigest(tables), nil
}

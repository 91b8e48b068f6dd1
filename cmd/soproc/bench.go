package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"scaleout/internal/analytic"
	"scaleout/internal/exp"
	"scaleout/internal/figures"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/store"
	"scaleout/internal/tech"
	"scaleout/internal/tier"
	"scaleout/internal/workload"
)

// The kernel benchmark harness behind `soproc -bench`: it times
// representative sweep points — and the full figure harness — on the
// event-scheduled kernel and on the lock-step reference kernel, prints
// the comparison, and records it as JSON (BENCH_kernel.json). The file
// seeds the repo's performance trajectory: CI runs a one-iteration
// smoke of the same harness, and EXPERIMENTS.md quotes its numbers.

// benchPoint is one measured configuration. For the kernel points —
// the simulator and structural points and runall — EventNs and
// LockstepNs are each kernel's median over interleaved runs (see
// timeKernels). The tiered points (tiered16/32/64, runall_tiered)
// reuse the two timing columns as tiered-vs-untiered: EventNs is the
// tiered evaluation, LockstepNs the full simulation of the same work,
// Speedup their ratio; they
// additionally record the analytic surrogate's scoring cost and the
// fraction of points that escalated to the structural simulator. The
// store-warm points (runall_store_warm, structural16_store_warm) reuse
// the columns as disk-vs-simulated: EventNs is the same work served
// from a warm persistent result store, LockstepNs its simulated cost.
type benchPoint struct {
	Name       string  `json:"name"`
	EventNs    int64   `json:"event_ns_per_point"`
	LockstepNs int64   `json:"lockstep_ns_per_point"`
	Speedup    float64 `json:"speedup"`
	// SurrogateNs and EscalationRate are omitted for non-tiered points.
	SurrogateNs    int64   `json:"surrogate_ns_per_point,omitempty"`
	EscalationRate float64 `json:"escalation_rate,omitempty"`
}

// benchReport is the BENCH_kernel.json schema.
type benchReport struct {
	Harness    string       `json:"harness"`
	GoVersion  string       `json:"go_version"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Iterations int          `json:"iterations"`
	Points     []benchPoint `json:"points"`
}

// timeRuns reports the mean wall time of iters calls to f after one
// unmeasured warmup call.
func timeRuns(iters int, f func() error) (time.Duration, error) {
	if err := f(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iters), nil
}

// minKernelSamples is the fewest measured runs per kernel that
// timeKernels takes, whatever -bench-iters asks, so that a kernel
// point's median is never a single run: CI's one-iteration smoke holds
// these medians to speedup floors.
const minKernelSamples = 3

// timeKernels times f on the event and the lock-step kernel and reports
// each kernel's median over max(iters, minKernelSamples) runs. After
// one unmeasured warm-up call on each, the measured calls alternate
// kernel by kernel, so a load spike on a shared host lands on both
// kernels' samples instead of on one kernel's whole block of runs.
func timeKernels(iters int, f func() error) (event, lockstep time.Duration, err error) {
	defer sim.UseLockstepKernel(false)
	samples := [2][]time.Duration{}
	for i := -1; i < max(iters, minKernelSamples); i++ {
		for k, name := range []string{"event", "lockstep"} {
			sim.UseLockstepKernel(k == 1)
			start := time.Now()
			if err := f(); err != nil {
				return 0, 0, fmt.Errorf("(%s): %w", name, err)
			}
			if i >= 0 {
				samples[k] = append(samples[k], time.Since(start))
			}
		}
	}
	return median(samples[0]), median(samples[1]), nil
}

// median returns the middle sample, or the mean of the middle two.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	n := len(ds)
	return (ds[(n-1)/2] + ds[n/2]) / 2
}

// runBench measures every benchmark point on both kernels and writes
// the report to path. A non-empty cpuProfile path wraps the whole
// measurement in a CPU profile, so a throughput regression caught by
// CI's smoke floors is diagnosable straight from the build artifacts.
func runBench(path string, iters, workers int, cpuProfile string) error {
	if iters < 1 {
		iters = 1
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	ws := workload.Suite()
	simPoints := []struct {
		name string
		cfg  sim.Config
	}{
		// The pod every chapter sweeps over.
		{"pod16-crossbar", sim.Config{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Crossbar, 16)}},
		// The high-core-count, high-stall point the wakeup schedule
		// targets (also BenchmarkKernelEvent64Core).
		{"pod64-mesh", sim.Config{Workload: ws[0], CoreType: tech.OoO, Cores: 64, LLCMB: 8,
			Net: noc.New(noc.Mesh, 64), MemChannels: 4}},
		// NOC-Out's halved bank accept rate produces extra queueing.
		{"pod64-nocout", sim.Config{Workload: ws[0], CoreType: tech.OoO, Cores: 64, LLCMB: 8,
			Net: noc.New(noc.NOCOut, 64)}},
		// Blocking loads: in-order cores spend most cycles stalled.
		{"pod32-inorder-mesh", sim.Config{Workload: ws[0], CoreType: tech.InOrder, Cores: 32, LLCMB: 2,
			Net: noc.New(noc.Mesh, 32)}},
	}

	report := benchReport{
		Harness:    "soproc -bench",
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Iterations: iters,
	}
	measure := func(name string, f func() error) (benchPoint, error) {
		event, lockstep, err := timeKernels(iters, f)
		if err != nil {
			return benchPoint{}, fmt.Errorf("%s %w", name, err)
		}
		p := benchPoint{
			Name:       name,
			EventNs:    event.Nanoseconds(),
			LockstepNs: lockstep.Nanoseconds(),
			Speedup:    float64(lockstep) / float64(event),
		}
		fmt.Printf("%-20s event %12s   lockstep %12s   speedup %.2fx\n",
			p.Name, event.Round(time.Microsecond), lockstep.Round(time.Microsecond), p.Speedup)
		return p, nil
	}

	for _, pt := range simPoints {
		cfg := pt.cfg
		p, err := measure(pt.name, func() error {
			_, err := sim.Run(cfg)
			return err
		})
		if err != nil {
			return err
		}
		report.Points = append(report.Points, p)
	}

	// Structural points at 16/32/64 cores: the emergent-cache mode has
	// its own hot path (trace generation, real tag arrays, MSHRs), and
	// it is where the O(1) cache hierarchy and the machine pool earn
	// their keep. The 16-core point is the thesis pod; the larger ones
	// scale the bank count and contention.
	structPoints := []struct {
		name string
		cfg  sim.StructuralConfig
	}{
		{"structural16", sim.StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}},
		{"structural32", sim.StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 32, LLCMB: 8,
			Net: noc.New(noc.Mesh, 32)}},
		{"structural64", sim.StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 64, LLCMB: 8,
			Net: noc.New(noc.Mesh, 64), MemChannels: 4}},
	}
	var structural16Ns int64
	for _, pt := range structPoints {
		scfg := pt.cfg
		p, err := measure(pt.name, func() error {
			_, err := sim.RunStructural(scfg)
			return err
		})
		if err != nil {
			return err
		}
		if pt.name == "structural16" {
			structural16Ns = p.EventNs
		}
		report.Points = append(report.Points, p)
	}

	// The whole harness: every figure on a fresh engine per run, so the
	// number includes real simulation work, not memo hits.
	p, err := measure("runall", func() error {
		ctx := exp.WithEngine(context.Background(), exp.New(workers))
		_, err := figures.RunAllContext(ctx)
		return err
	})
	if err != nil {
		return err
	}
	report.Points = append(report.Points, p)

	tiered, err := benchTiered(iters, workers, p.EventNs)
	if err != nil {
		return err
	}
	report.Points = append(report.Points, tiered...)

	stored, err := benchStore(iters, workers, p.EventNs, structural16Ns)
	if err != nil {
		return err
	}
	report.Points = append(report.Points, stored...)

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchTiered measures the tiered evaluator. tiered16/32/64 run a
// fast-mode structural sweep (the workload suite across LLC sizes, at a
// seed the calibration grid never anchored) under a top-4 rank-edge
// decision, against the same sweep fully simulated; runall_tiered
// regenerates every figure in exact tier mode against a calibration
// that recorded the whole suite, against runallNs (the untiered harness
// time measured just before). Calibration itself is never timed — it is
// the one-off cost the tiers amortize.
func benchTiered(iters, workers int, runallNs int64) ([]benchPoint, error) {
	ws := workload.Suite()
	gridCal, err := tier.Calibrate(context.Background(), tier.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("tiered calibration: %w", err)
	}

	var points []benchPoint
	emit := func(p benchPoint) {
		fmt.Printf("%-20s tiered %12s   full %12s   speedup %.2fx   surrogate %8s   escalation %.2f\n",
			p.Name,
			time.Duration(p.EventNs).Round(time.Microsecond),
			time.Duration(p.LockstepNs).Round(time.Microsecond),
			p.Speedup,
			time.Duration(p.SurrogateNs).Round(time.Nanosecond),
			p.EscalationRate)
		points = append(points, p)
	}

	for _, n := range []int{16, 32, 64} {
		var batch []sim.StructuralConfig
		for _, w := range ws {
			for _, llc := range []float64{2, 4, 8} {
				batch = append(batch, sim.StructuralConfig{
					Workload: w, CoreType: tech.OoO, Cores: n, LLCMB: llc, Seed: 2,
				})
			}
		}
		name := fmt.Sprintf("tiered%d", n)
		ev := tier.New(gridCal, tier.Fast)
		decision := tier.TopK{K: 4}
		tiered, err := timeRuns(iters, func() error {
			// A fresh engine per run: escalated points must simulate,
			// not hit a memo warmed by the previous iteration.
			ctx := exp.WithEngine(context.Background(), exp.New(workers))
			_, _, err := ev.StructuralsDecided(ctx, batch, decision)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		full, err := timeRuns(iters, func() error {
			ctx := exp.WithEngine(context.Background(), exp.New(workers))
			_, err := exp.Structurals(ctx, batch)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s (full): %w", name, err)
		}
		surrogate, err := timeRuns(iters, func() error {
			for _, c := range batch {
				cc, err := c.Canonical()
				if err != nil {
					return err
				}
				analytic.Surrogate(analytic.SurrogateSpec{
					Workload:    cc.Workload,
					Design:      analytic.DesignFor(cc.CoreType, cc.Cores, cc.LLCMB, cc.Net),
					MSHRs:       cc.L1MSHRs,
					SWScaling:   true,
					MemChannels: cc.MemChannels,
				})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s (surrogate): %w", name, err)
		}
		emit(benchPoint{
			Name:           name,
			EventNs:        tiered.Nanoseconds() / int64(len(batch)),
			LockstepNs:     full.Nanoseconds() / int64(len(batch)),
			Speedup:        float64(full) / float64(tiered),
			SurrogateNs:    surrogate.Nanoseconds() / int64(len(batch)),
			EscalationRate: ev.Stats().EscalationRate,
		})
	}

	// The exact tier over the whole harness: anchors recorded from one
	// full regeneration serve every figure point byte-identically.
	suiteCal, err := tier.Calibrate(context.Background(), tier.Options{
		Workers: workers,
		Suites: func(ctx context.Context) error {
			_, err := figures.RunAllContext(ctx)
			return err
		},
	})
	if err != nil {
		return nil, fmt.Errorf("suite calibration: %w", err)
	}
	evExact := tier.New(suiteCal, tier.Exact)
	tiered, err := timeRuns(iters, func() error {
		ctx := exp.WithEngine(context.Background(), exp.New(workers))
		ctx = exp.WithTier(ctx, evExact)
		_, err := figures.RunAllContext(ctx)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("runall_tiered: %w", err)
	}
	emit(benchPoint{
		Name:           "runall_tiered",
		EventNs:        tiered.Nanoseconds(),
		LockstepNs:     runallNs,
		Speedup:        float64(runallNs) / float64(tiered.Nanoseconds()),
		EscalationRate: evExact.Stats().EscalationRate,
	})
	return points, nil
}

// benchStore measures disk-warm serving from the persistent result
// store (internal/store): one unmeasured cold pass populates a store in
// a temporary directory, then each measured run drives the same work
// through a fresh engine with the store installed, so every point is a
// disk probe plus a JSON decode instead of a simulation. EventNs is the
// warm cost; LockstepNs the simulated cost of the same work measured
// earlier in the harness (runall and structural16).
func benchStore(iters, workers int, runallNs, structural16Ns int64) ([]benchPoint, error) {
	dir, err := os.MkdirTemp("", "sostore-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	withStore := func() context.Context {
		eng := exp.New(workers)
		eng.SetStore(st)
		return exp.WithEngine(context.Background(), eng)
	}

	var points []benchPoint
	emit := func(name string, warm time.Duration, coldNs int64) {
		p := benchPoint{
			Name:       name,
			EventNs:    warm.Nanoseconds(),
			LockstepNs: coldNs,
			Speedup:    float64(coldNs) / float64(warm.Nanoseconds()),
		}
		fmt.Printf("%-24s warm %12s   cold %12s   speedup %.2fx\n",
			p.Name, warm.Round(time.Microsecond), time.Duration(coldNs).Round(time.Microsecond), p.Speedup)
		points = append(points, p)
	}

	// timeRuns's unmeasured warmup call doubles as the cold populating
	// pass: its simulations write through to the store, so the measured
	// iterations (each on a fresh engine) serve entirely from disk.
	warm, err := timeRuns(iters, func() error {
		_, err := figures.RunAllContext(withStore())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("runall_store_warm: %w", err)
	}
	emit("runall_store_warm", warm, runallNs)

	ws := workload.Suite()
	scfg := sim.StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}
	warm, err = timeRuns(iters, func() error {
		_, err := exp.Structurals(withStore(), []sim.StructuralConfig{scfg})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("structural16_store_warm: %w", err)
	}
	emit("structural16_store_warm", warm, structural16Ns)
	return points, nil
}

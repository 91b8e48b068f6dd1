package sim

import (
	"fmt"
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// The statistical machine runs each core ahead through its private
// cycles and parks it on its next LLC access (stepActive). These tests
// pin that run-ahead to the lock-step reference at its edges: windows
// shorter than one access gap, windows on either side of the wheel's
// 512-cycle horizon, cycles with several accesses, and the core state
// handed across the warm-up/measure boundary.

// windowEdges are warm-up and measure lengths around the cases run-ahead
// must stop at: a window of one or two cycles (the current cycle is the
// last, so nothing runs ahead), a few cycles, and the wheel horizon.
var windowEdges = []int{1, 2, 7, 511, 512, 513}

// highAPKI is a custom workload whose cores draw an LLC access on one
// issue slot in five at full issue width and rarely block, so one core
// often performs several accesses in one cycle — a parked access
// followed by inline ones.
func highAPKI() workload.Workload {
	w := workload.Suite()[0]
	w.Name = "High APKI"
	w.APKI = 200
	w.IFetchFrac = 0.1
	w.SharedFrac, w.SharedWriteFrac = 0.3, 0.5
	w.BaseIPC = map[tech.CoreType]float64{}
	w.MLP = map[tech.CoreType]float64{}
	w.LLCOverlap = map[tech.CoreType]float64{}
	for _, t := range []tech.CoreType{tech.Conventional, tech.OoO, tech.InOrder} {
		w.BaseIPC[t] = float64(tech.Cores(t).Width)
		w.MLP[t] = 8
		w.LLCOverlap[t] = 0.05
	}
	return w
}

// runAheadConfigs crosses in-order and out-of-order cores with the
// crossbar, mesh and NOC-Out fabrics, on a suite workload and on
// highAPKI.
func runAheadConfigs() map[string]Config {
	out := map[string]Config{}
	for _, w := range []workload.Workload{workload.Suite()[1], highAPKI()} {
		for _, ct := range []tech.CoreType{tech.InOrder, tech.OoO} {
			for _, kind := range []noc.Kind{noc.Crossbar, noc.Mesh, noc.NOCOut} {
				name := fmt.Sprintf("%s/%v/%v", w.Name, ct, kind)
				out[name] = Config{Workload: w, CoreType: ct, Cores: 8, LLCMB: 2,
					Net: noc.New(kind, 8), MemChannels: 1, Seed: 5}
			}
		}
	}
	return out
}

// Run must equal RunLockstep for every pair of window lengths.
func TestRunAheadWindowEdges(t *testing.T) {
	for name, cfg := range runAheadConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, warm := range windowEdges {
				for _, measure := range windowEdges {
					cfg.WarmupCycles, cfg.MeasureCycles = warm, measure
					event, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					lockstep, err := RunLockstep(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if event != lockstep {
						t.Fatalf("warmup %d, measure %d: kernels diverged:\nevent:    %+v\nlockstep: %+v",
							warm, measure, event, lockstep)
					}
				}
			}
		})
	}
}

// multiAccessCounter wraps a machine on the lock-step loop, where every
// step is one core-cycle, and counts the steps that perform more than
// one LLC access.
type multiAccessCounter struct {
	*machine
	steps int
}

func (c *multiAccessCounter) stepActive(i int) {
	before := c.llcAccesses
	c.machine.stepActive(i)
	if c.llcAccesses-before > 1 {
		c.steps++
	}
}

// highAPKI must actually put several accesses in one core-cycle, or the
// equivalence tests above never resume a parked core into more work.
// (Only out-of-order cores can: an in-order core blocks on every load.)
func TestHighAPKIPacksAccesses(t *testing.T) {
	for _, ct := range []tech.CoreType{tech.OoO, tech.Conventional} {
		cfg := Config{Workload: highAPKI(), CoreType: ct, Cores: 4, LLCMB: 2}
		if err := cfg.applyDefaults(); err != nil {
			t.Fatal(err)
		}
		m, err := newMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counter := &multiAccessCounter{machine: m}
		runLockstepOn(&m.kernel, counter, 2000)
		if counter.steps == 0 {
			t.Errorf("%v: no core-cycle performed more than one access", ct)
		}
	}
}

// At each window boundary every core's RNG stream and issue credit must
// equal the lock-step run's — run-ahead stops at the window end, so
// the measured window starts from the same core state — and no core may
// be left parked across the boundary.
func TestRunAheadWindowBoundaryState(t *testing.T) {
	for name, cfg := range runAheadConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.WarmupCycles, cfg.MeasureCycles = 513, 511
			if err := cfg.applyDefaults(); err != nil {
				t.Fatal(err)
			}
			event, err := newMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			lockstep, err := newMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w, cycles := range []int{cfg.WarmupCycles, cfg.MeasureCycles} {
				if w > 0 {
					event.resetStats()
					lockstep.resetStats()
				}
				runEvent(&event.kernel, event, cycles)
				runLockstepOn(&lockstep.kernel, lockstep, cycles)
				if event.now != lockstep.now || event.aheadEnd != 0 {
					t.Fatalf("window %d: event at cycle %d (aheadEnd %d), lockstep at %d",
						w, event.now, event.aheadEnd, lockstep.now)
				}
				for i := range event.cores {
					e, l := &event.cores[i], &lockstep.cores[i]
					if e.parkedSlot != -1 {
						t.Fatalf("window %d: core %d parked on slot %d across the boundary", w, i, e.parkedSlot)
					}
					if e.rng != l.rng || e.credit != l.credit {
						t.Fatalf("window %d: core %d state diverged: rng %x/%x, credit %v/%v",
							w, i, e.rng, l.rng, e.credit, l.credit)
					}
				}
				if event.instructions != lockstep.instructions || event.llcAccesses != lockstep.llcAccesses {
					t.Fatalf("window %d: counters diverged: instructions %d/%d, accesses %d/%d", w,
						event.instructions, lockstep.instructions, event.llcAccesses, lockstep.llcAccesses)
				}
			}
		})
	}
}

// FuzzKernelEquivalence searches configurations for a divergence between
// the run-ahead event kernel and the lock-step reference. The committed
// corpus (testdata/fuzz/FuzzKernelEquivalence) runs as part of every
// plain `go test`; `go test -fuzz FuzzKernelEquivalence ./internal/sim`
// explores further.
func FuzzKernelEquivalence(f *testing.F) {
	workloads := append(workload.Suite(), highAPKI())
	kinds := []noc.Kind{noc.Crossbar, noc.Mesh, noc.NOCOut}
	coreTypes := []tech.CoreType{tech.InOrder, tech.OoO, tech.Conventional}
	f.Fuzz(func(t *testing.T, seed uint64, cores, kind, coreType, wl uint8, warm, measure uint16) {
		n := 1 + int(cores%32)
		cfg := Config{
			Workload:      workloads[int(wl)%len(workloads)],
			CoreType:      coreTypes[int(coreType)%len(coreTypes)],
			Cores:         n,
			LLCMB:         2,
			Net:           noc.New(kinds[int(kind)%len(kinds)], n),
			WarmupCycles:  1 + int(warm%1200),
			MeasureCycles: 1 + int(measure%1200),
			Seed:          seed,
		}
		event, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lockstep, err := RunLockstep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if event != lockstep {
			t.Fatalf("kernels diverged for %+v:\nevent:    %+v\nlockstep: %+v", cfg, event, lockstep)
		}
	})
}

// The event-scheduled simulation kernel. Both simulators in this
// package — the statistical one (sim.go) and the structural one
// (structural.go) — are built from the same machine scaffolding: cores
// that stall and wake, a banked LLC with per-bank occupancy, a coherence
// directory, and finite-bandwidth memory channels. The kernel owns that
// scaffolding plus the core scheduler; each simulator plugs in a
// coreModel (its access path: calibrated draws vs real tag arrays) and
// inherits the timing spine and stat accumulation.
//
// The seed kernel advanced a lock-step loop, polling every core every
// cycle even though most cores spend most cycles blocked — on fetch
// stalls, exhausted MLP windows, or stall debt. The event kernel keeps
// a wakeup schedule instead: a bucketed wheel of per-cycle core
// bitmaps, with exactly one pending wakeup per core. A core is stepped
// only at its next actionable cycle; everything in between costs
// nothing per core. (A (cycle, core) min-heap gives the same order but
// loses the race in practice: its sift comparisons are data-dependent
// branches the predictor cannot learn, while the wheel's bit scans
// branch on nothing.)
//
// Equivalence to the lock-step loop is exact, not approximate:
//
//   - A blocked or stalled core's lock-step "step" touches no shared
//     state and draws no randomness — it only decrements stall debt or
//     waits — so skipping it is invisible. Whole cycles of stall debt
//     are drained arithmetically at schedule time (subtracting the
//     integral part of the debt is an exact float operation, so the
//     remainder is bit-identical to N repeated decrements).
//   - Shared state (banks, channels, directory, stat counters) is only
//     touched on active cycles, and the wheel drains wakeups in
//     (cycle, core) order — exactly the cores the lock-step loop would
//     have found active, in exactly the order it visits them — so
//     cross-core interleaving at shared resources is preserved.
//   - Randomness is per-core (counter RNGs), so per-core draw order is
//     untouched by scheduling.
//
// The statistical machine goes further and runs each core ahead
// through its private cycles. Only about APKI/1000 of a core's issue
// slots reach the LLC; a cycle whose slots all draw no access only
// spends the core's own issue credit and RNG draws. Its MLP retirement
// can wait too: retiring is a filter on completion cycles, so one
// retire at the next access cycle leaves the same window as one per
// cycle. So one stepActive call runs the core's issue loop on from the
// current cycle until it draws an access in a later cycle, and parks
// there: slot index and draw saved, blockedUntil set to the access
// cycle. The wheel wakes the core at that cycle, in (cycle, core)
// order with every other core touching shared state then, and the
// core performs the access and finishes the cycle's remaining slots.
// This is exact for three reasons:
//
//   - Each core's draws happen in the same order as before. Only when
//     they happen moves, and no other core reads that stream.
//   - Banks, channels, the directory and the access counters are
//     touched only at access cycles, from the wheel, as before. The
//     instruction counter is a sum, so adding a private cycle's
//     instructions early changes nothing.
//   - Run-ahead stops at the window end (aheadEnd, set by runEvent).
//     So no warm-up cycle is counted as measured, and no cycle past
//     the measured window is simulated.
//
// runLockstep keeps the seed loop as the behavioural reference; the
// golden tests in kernel_test.go assert byte-identical results across
// core counts, core types, NoC kinds, and both simulators, and
// UseLockstepKernel lets benchmark harnesses measure the speedup on
// unmodified workloads.
package sim

import (
	"math"
	"math/bits"
	"sync/atomic"

	"scaleout/internal/cache"
	"scaleout/internal/stats"
	"scaleout/internal/tech"
)

// coreModel is the pluggable per-core behaviour a simulator mounts on
// the kernel: the access model (statistical draws or structural replay
// through real L1/MSHR arrays) behind a core's active cycles.
type coreModel interface {
	// core returns core i's scheduling state. The kernel reads it to
	// compute the core's next actionable cycle after a step.
	core(i int) *coreState

	// stepActive advances core i through one active cycle at the
	// kernel's current time. The kernel calls it only at cycles where
	// the lock-step loop would have gotten past the stall-debt and
	// blocked-until checks, so implementations start directly at
	// retirement and the issue loop. A model may also run the core's
	// private cycles ahead, up to aheadEnd, provided it leaves
	// blockedUntil at the next cycle the core needs the kernel.
	stepActive(i int)
}

// coreState is the per-core execution state the kernel schedules on.
// Models embed or hold it alongside their own structures.
type coreState struct {
	rng          stats.Rng
	credit       float64 // fractional issue budget from the base IPC
	stallDebt    float64 // exposed LLC-hit latency still to drain
	blockedUntil int64   // front-end or blocking-load stall
	slotDone     []int64 // completion cycles of outstanding off-chip loads
	slotMin      int64   // min(slotDone), noCompletion when empty
	privateSeq   uint64  // streaming pointer into the core's private data
}

// noCompletion is the sentinel "nothing outstanding" completion cycle:
// retirement scans are skipped entirely while the earliest completion
// (slotMin, pendingMin) is still in the future, which is most active
// cycles.
const noCompletion = int64(1)<<62 - 1

// newCoreState builds core i's initial state: a deterministic per-core
// RNG stream and an MLP window of the given depth.
func newCoreState(seed uint64, i int, slots int) coreState {
	return coreState{
		rng:      *stats.NewRng(seed + uint64(i)*0x9E3779B97F4A7C15),
		slotDone: make([]int64, 0, slots),
		slotMin:  noCompletion,
	}
}

// retireSlots drops completed off-chip loads from the MLP window,
// keeping slotMin in step. The guard makes the common case — nothing
// due yet — free.
func (c *coreState) retireSlots(now int64) {
	if c.slotMin > now {
		return
	}
	live := c.slotDone[:0]
	earliest := noCompletion
	for _, done := range c.slotDone {
		if done > now {
			live = append(live, done)
			if done < earliest {
				earliest = done
			}
		}
	}
	c.slotDone = live
	c.slotMin = earliest
}

// addSlot occupies an MLP slot until done.
func (c *coreState) addSlot(done int64) {
	c.slotDone = append(c.slotDone, done)
	if done < c.slotMin {
		c.slotMin = done
	}
}

// reset restores the state newCoreState(seed, i, ...) would produce,
// reusing the RNG and the MLP window's backing array.
func (c *coreState) reset(seed uint64, i int) {
	c.rng.Reseed(seed + uint64(i)*0x9E3779B97F4A7C15)
	c.credit = 0
	c.stallDebt = 0
	c.blockedUntil = 0
	c.slotDone = c.slotDone[:0]
	c.slotMin = noCompletion
	c.privateSeq = 0
}

// nextWake returns the next cycle at which the core does work, given it
// was just stepped at cycle now, draining whole cycles of stall debt on
// the way — exactly what the lock-step loop's prologue would have done
// one cycle at a time. Subtracting the integral part of the debt is
// exact in IEEE arithmetic (an integer ≤ the value is always on the
// value's representation grid), so the fractional remainder is
// bit-identical to repeated decrements.
func (c *coreState) nextWake(now int64) int64 {
	wake := now + 1
	if c.stallDebt >= 1 {
		whole := math.Floor(c.stallDebt)
		c.stallDebt -= whole
		wake += int64(whole)
	}
	if c.blockedUntil > wake {
		wake = c.blockedUntil
	}
	return wake
}

// The wheel's horizon: wakeups up to wheelSpan-1 cycles out land in
// their exact bucket; rarer, farther ones (deep memory-channel backlog)
// park in the bucket their cycle aliases to and lap the wheel — the
// wakeAt check filters them — until their lap comes due. 512 cycles
// covers every on-chip latency and ordinary DRAM queueing.
const (
	wheelBits = 9
	wheelSpan = 1 << wheelBits
	wheelMask = wheelSpan - 1
)

// wakeWheel is a bucketed timing wheel of per-cycle core bitmaps: bucket
// (cycle & wheelMask) holds one bit per core due (or parked) at that
// cycle. Each core has exactly one pending wakeup, recorded in wakeAt.
// Draining a bucket ascends word index then bit index, so same-cycle
// wakeups step cores in exactly the order the lock-step loop visits
// them. Scheduling is a bit-set and draining a bit-scan — no
// comparisons, which is what makes the wheel cheaper than a heap here.
type wakeWheel struct {
	wakeAt []int64  // per-core next actionable cycle
	slots  []uint64 // wheelSpan buckets × words of core bits
	words  int      // words per bucket: ceil(cores/64)
}

func newWakeWheel(cores int) wakeWheel {
	words := (cores + 63) / 64
	return wakeWheel{
		wakeAt: make([]int64, cores),
		slots:  make([]uint64, wheelSpan*words),
		words:  words,
	}
}

// schedule records core's next wakeup. Aliasing is deliberate: a cycle
// beyond the horizon sets the same bit its due cycle will occupy, and
// the drain loop re-parks it until wakeAt matches.
func (w *wakeWheel) schedule(core int, at int64) {
	w.wakeAt[core] = at
	w.slots[int(at&wheelMask)*w.words+(core>>6)] |= 1 << (core & 63)
}

// bucket returns the slice of core-bit words for a cycle's bucket.
func (w *wakeWheel) bucket(cycle int64) []uint64 {
	base := int(cycle&wheelMask) * w.words
	return w.slots[base : base+w.words]
}

// kernel is the shared machine scaffolding both simulators instantiate:
// the wakeup schedule, LLC bank and memory-channel occupancy, the
// coherence directory, and stat accumulation.
type kernel struct {
	cfg    cfgDerived
	banks  []int64 // next cycle each LLC bank can accept a request
	chans  []int64 // next cycle each memory channel can start a line
	dir    *cache.Directory
	now    int64
	sched  wakeWheel
	model  coreModel
	states []*coreState // model.core(i) for every core, devirtualized

	// aheadEnd bounds a model's run-ahead: no core may issue in a cycle
	// at or past it. runEvent sets it to its window's end and clears it
	// on return, so under the lock-step loop it is zero and every step
	// covers exactly one cycle.
	aheadEnd int64

	// measured stats
	instructions  uint64
	llcAccesses   uint64
	llcMisses     uint64
	llcLatencySum uint64
	offChipLines  uint64
}

// newKernel builds the scaffolding for a defaults-applied Config.
func newKernel(cfg Config) (kernel, error) {
	d := derive(cfg)
	dir, err := cache.NewDirectory(min(cfg.Cores, 64))
	if err != nil {
		return kernel{}, err
	}
	return kernel{
		cfg:   d,
		banks: make([]int64, d.banks),
		chans: make([]int64, cfg.MemChannels),
		dir:   dir,
	}, nil
}

// attach mounts the core model and schedules every core's first wakeup
// at the current cycle. Core scheduling state is resolved once here —
// the run loops touch it every event or poll, too hot for an interface
// call. A pooled machine re-attaching with an unchanged core count
// reuses the wheel's buckets and the state slice in place.
func (k *kernel) attach(model coreModel) {
	k.model = model
	words := (k.cfg.Cores + 63) / 64
	if len(k.states) == k.cfg.Cores && k.sched.words == words {
		clear(k.sched.slots)
		clear(k.sched.wakeAt)
	} else {
		k.states = make([]*coreState, k.cfg.Cores)
		k.sched = newWakeWheel(k.cfg.Cores)
	}
	for i := 0; i < k.cfg.Cores; i++ {
		k.states[i] = model.core(i)
		k.sched.schedule(i, k.now)
	}
}

// lockstepKernel routes Run/RunStructural onto the lock-step reference
// kernel; see UseLockstepKernel.
var lockstepKernel atomic.Bool

// UseLockstepKernel selects the lock-step reference kernel for
// subsequent Run/RunStructural calls (true) or the event-scheduled
// kernel (false, the default). Results are byte-identical either way;
// the switch exists so benchmark harnesses (`soproc -bench`, the
// BenchmarkKernel* pair) can measure the event kernel's speedup on
// unmodified workloads. Do not toggle while simulations are running.
func UseLockstepKernel(on bool) { lockstepKernel.Store(on) }

// simulateOn runs the warmup and measured windows on the selected
// kernel, with the concrete machine type M devirtualizing the step
// calls.
func simulateOn[M coreModel](k *kernel, model M, warmup, measure int, lockstep bool) {
	if lockstep {
		runLockstepOn(k, model, warmup)
		k.resetStats()
		runLockstepOn(k, model, measure)
		return
	}
	runEvent(k, model, warmup)
	k.resetStats()
	runEvent(k, model, measure)
}

// run advances the machine by the given number of cycles on the wakeup
// schedule; see runEvent. (Interface-typed form for tests; simulators
// call runEvent/runLockstepOn with their concrete type.)
func (k *kernel) run(cycles int) { runEvent(k, k.model, cycles) }

// runEvent advances the machine by the given number of cycles on the
// wakeup schedule. Wakeups past the window stay queued: a core blocked
// across the warmup/measure boundary resumes at the same cycle the
// lock-step loop would have resumed it.
//
// The loop is generic over the concrete machine type so the per-event
// stepActive call — the hottest indirect call in the simulator —
// devirtualizes when a machine runs itself (simulators pass their
// concrete type; the kernel.run wrapper keeps the interface form for
// tests).
func runEvent[M coreModel](k *kernel, model M, cycles int) {
	end := k.now + int64(cycles)
	k.aheadEnd = end
	w := &k.sched
	for t := k.now; t < end; t++ {
		bucket := w.bucket(t)
		for wi := range bucket {
			word := bucket[wi]
			if word == 0 {
				continue
			}
			// Drain a snapshot: wakeups scheduled while stepping — a
			// core rescheduling itself exactly one lap out, or a parked
			// core re-parking — land back in the live bucket for a
			// future lap, not in this drain.
			bucket[wi] = 0
			for word != 0 {
				core := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if w.wakeAt[core] > t {
					// Beyond-horizon wakeup lapping the wheel: park it
					// in the same bucket for the next lap.
					bucket[wi] |= 1 << (core & 63)
					continue
				}
				k.now = t
				model.stepActive(core)
				w.schedule(core, k.states[core].nextWake(t))
			}
		}
	}
	k.now = end
	k.aheadEnd = 0
}

// runLockstepOn advances the machine with the seed kernel's cycle loop —
// polling every core every cycle — as the behavioural reference for the
// golden equivalence tests and the benchmark baseline.
func runLockstepOn[M coreModel](k *kernel, model M, cycles int) {
	end := k.now + int64(cycles)
	for ; k.now < end; k.now++ {
		for i := 0; i < k.cfg.Cores; i++ {
			c := k.states[i]
			if c.stallDebt >= 1 {
				c.stallDebt--
				continue
			}
			if k.now < c.blockedUntil {
				continue
			}
			model.stepActive(i)
		}
	}
}

func (k *kernel) resetStats() {
	k.instructions = 0
	k.llcAccesses = 0
	k.llcMisses = 0
	k.llcLatencySum = 0
	k.offChipLines = 0
	k.dir.ResetStats()
}

// isMissLatency distinguishes off-chip completions from LLC hits by
// magnitude (misses always include the DRAM latency).
func (k *kernel) isMissLatency(lat int64) bool {
	return lat >= k.cfg.memLat
}

// bankReady routes a request through the network to a bank, queues on
// the bank's accept rate, and returns the cycle the bank's data is
// ready.
func (k *kernel) bankReady(bank int) int64 {
	arrive := k.now + k.cfg.netLat
	start := arrive
	if k.banks[bank] > start {
		start = k.banks[bank]
	}
	k.banks[bank] = start + k.cfg.bankBusy // pipelined bank accept rate
	return start + k.cfg.bankLat
}

// channelDone occupies a memory channel for occupancy cycles starting no
// earlier than ready and returns the line's end-to-end completion cycle.
func (k *kernel) channelDone(ch int, ready, occupancy int64) int64 {
	start := ready
	if k.chans[ch] > start {
		start = k.chans[ch]
	}
	k.chans[ch] = start + occupancy
	return start + k.cfg.memLat + k.cfg.replyLat
}

// timeAccess models the statistical request path: the bank and (on a
// miss) the channel are drawn from the core's RNG, and a dirty eviction
// accompanies a calibrated fraction of fills.
func (k *kernel) timeAccess(rng *stats.Rng, miss, forwarded bool) int64 {
	k.llcAccesses++
	ready := k.bankReady(rng.Intn(k.cfg.banks))

	var done int64
	switch {
	case miss:
		k.llcMisses++
		k.offChipLines++
		occupancy := k.cfg.lineCycles
		if rng.Float64() < k.cfg.writebackPr {
			// A dirty eviction accompanies the fill and occupies the
			// channel for another line, off the critical path.
			k.offChipLines++
			occupancy += k.cfg.lineCycles
		}
		done = k.channelDone(rng.Intn(len(k.chans)), ready, occupancy)
	case forwarded:
		// LLC directory forwards to the owning L1 and back.
		done = ready + 2*k.cfg.netLat + k.cfg.replyLat
	default:
		done = ready + k.cfg.replyLat
	}
	k.llcLatencySum += uint64(done - k.now)
	return done
}

// timeAccessBank models the same path for a structural access whose
// bank is determined by the block address; channels are interleaved by
// bank and writeback traffic is accounted by the real victim arrays.
func (k *kernel) timeAccessBank(bank int, miss, forwarded bool) int64 {
	k.llcAccesses++
	ready := k.bankReady(bank)

	var done int64
	switch {
	case miss:
		k.llcMisses++
		k.offChipLines++
		done = k.channelDone(int(uint64(bank)%uint64(len(k.chans))), ready, k.cfg.lineCycles)
	case forwarded:
		done = ready + 2*k.cfg.netLat + k.cfg.replyLat
	default:
		done = ready + k.cfg.replyLat
	}
	k.llcLatencySum += uint64(done - k.now)
	return done
}

func (k *kernel) result() Result {
	cycles := k.cfg.MeasureCycles
	appInstr := float64(k.instructions) * k.cfg.swEff
	r := Result{
		Cycles:          cycles,
		Instructions:    uint64(appInstr),
		AppIPC:          appInstr / float64(cycles),
		LLCAccesses:     k.llcAccesses,
		LLCMisses:       k.llcMisses,
		SnoopRatePct:    k.dirSnoopPct(),
		OffChipGBs:      float64(k.offChipLines) * tech.CacheLineBytes * tech.ClockGHz / float64(cycles),
		DirectoryBlocks: k.dir.TrackedBlocks(),
	}
	r.PerCoreIPC = r.AppIPC / float64(k.cfg.Cores)
	if k.llcAccesses > 0 {
		r.AvgLLCLatency = float64(k.llcLatencySum) / float64(k.llcAccesses)
	}
	return r
}

// dirSnoopPct scales the directory's snoop rate (over tracked shared
// accesses) to the full LLC access stream, as Figure 4.3 plots it.
func (k *kernel) dirSnoopPct() float64 {
	if k.llcAccesses == 0 {
		return 0
	}
	return 100 * float64(k.dir.SnoopAccesses) / float64(k.llcAccesses)
}

package sim

import (
	"runtime"
	"testing"
	"time"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/trace"
	"scaleout/internal/workload"
)

// Golden pool-equivalence test: a machine recycled through the pool and
// reset for a new configuration must produce results byte-identical to
// a freshly constructed machine — across shape-sharing configurations
// (same geometry, different workload/seed/MSHRs trigger actual reuse)
// and back-to-back repeats. Any residue a reset leaves behind — a stale
// tag, stamp, RNG position, directory entry, or queue depth — shows up
// here as a field-level divergence.
func TestMachinePoolEquivalence(t *testing.T) {
	ws := workload.Suite()
	short := func(c StructuralConfig) StructuralConfig {
		c.WarmupCycles, c.MeasureCycles = 8000, 10000
		return c
	}
	// Consecutive entries share a shape where possible so the pooled
	// pass genuinely reuses machines rather than always building fresh.
	cfgs := []StructuralConfig{
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2}),
		short(StructuralConfig{Workload: ws[1], CoreType: tech.OoO, Cores: 8, LLCMB: 2}),
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2, Seed: 42}),
		short(StructuralConfig{Workload: ws[2], CoreType: tech.InOrder, Cores: 8, LLCMB: 2}),
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4,
			Net: noc.New(noc.Mesh, 16)}),
		short(StructuralConfig{Workload: ws[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2}), // repeat of [0]
	}

	// Fresh baseline: pool disabled, every run constructs.
	UseMachinePool(false)
	fresh := make([]StructuralResult, len(cfgs))
	for i, cfg := range cfgs {
		r, err := RunStructural(cfg)
		if err != nil {
			t.Fatalf("fresh cfg %d: %v", i, err)
		}
		fresh[i] = r
	}

	// Pooled pass: same sequence, machines recycled in between.
	UseMachinePool(true)
	defer UseMachinePool(true) // leave the default state behind
	for i, cfg := range cfgs {
		r, err := RunStructural(cfg)
		if err != nil {
			t.Fatalf("pooled cfg %d: %v", i, err)
		}
		if r != fresh[i] {
			t.Fatalf("pooled run %d diverged:\npooled: %+v\nfresh:  %+v", i, r, fresh[i])
		}
	}

}

// A pooled machine must also behave identically on the lock-step
// reference kernel, which shares the reset path.
func TestMachinePoolEquivalenceLockstep(t *testing.T) {
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 8, LLCMB: 2,
		WarmupCycles: 6000, MeasureCycles: 8000}
	UseMachinePool(false)
	fresh, err := RunStructuralLockstep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	UseMachinePool(true)
	defer UseMachinePool(true)
	for i := 0; i < 3; i++ {
		pooled, err := RunStructuralLockstep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pooled != fresh {
			t.Fatalf("pooled lockstep run %d diverged:\npooled: %+v\nfresh:  %+v", i, pooled, fresh)
		}
	}
}

// Idle pools pin no memory: once no sweep is running, garbage
// collections release every pooled machine and warm-start image, so a
// daemon between sweeps does not hold multi-MB LLC arrays. The pools
// age on the finalizer goroutine after each GC, so the test polls.
func TestIdlePoolsReclaimedByGC(t *testing.T) {
	UseMachinePool(true)
	defer UseMachinePool(true)
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 4, LLCMB: 1,
		WarmupCycles: 500, MeasureCycles: 500}
	if _, err := RunStructural(cfg); err != nil {
		t.Fatal(err)
	}
	if machinePool.len() == 0 || prefillImages.len() == 0 {
		t.Fatal("a finished run left no idle machine or warm-start image to reclaim")
	}
	for i := 0; i < 100 && machinePool.len()+prefillImages.len() > 0; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := machinePool.len(); n != 0 {
		t.Fatalf("idle machines of %d shapes survived 100 GC cycles", n)
	}
	if n := prefillImages.len(); n != 0 {
		t.Fatalf("idle warm-start images of %d keys survived 100 GC cycles", n)
	}
}

// len reports how many keys hold a value.
func (k *keyedPools[K]) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.cur) + len(k.old)
}

// keyedPools hands a released value to the next get on any goroutine,
// keeps it across one aging, drops it at the second, and never keeps a
// key that holds nothing — so a stream of distinct keys leaves no
// entries behind.
func TestKeyedPoolsReuseAndForget(t *testing.T) {
	var k keyedPools[int]
	const n = 1000
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			k.put(i, i)
		}
		close(done)
	}()
	<-done
	for i := 0; i < n; i++ {
		if v := k.get(i); v != i {
			t.Fatalf("get(%d) = %v after a put on another goroutine", i, v)
		}
	}
	if l := k.len(); l != 0 {
		t.Fatalf("%d keys left after every value was taken", l)
	}
	for i := 0; i < n; i++ {
		k.put(i, i)
	}
	k.age()
	if v := k.peek(7); v != 7 {
		t.Fatalf("peek(7) = %v after one aging, want 7", v)
	}
	if v := k.get(8); v != 8 {
		t.Fatalf("get(8) = %v after one aging, want 8", v)
	}
	k.age() // 7 was used since the first aging; the rest were idle
	if l := k.len(); l != 1 {
		t.Fatalf("%d keys survived two agings, want only the peeked one", l)
	}
	k.age()
	if l := k.len(); l != 0 {
		t.Fatalf("%d keys survived after every value went idle", l)
	}
}

// Regression test for the MSHR-full hang: when the MSHR file reports
// full but no miss is outstanding (an invariant violation — pending
// mirrors the MSHR file), the earliest-completion lookup used to leave
// blockedUntil at the far-future sentinel and the core hung silently
// forever. structMiss must record an explicit error instead, and the
// run must surface it.
func TestStructMissMSHRFullGuard(t *testing.T) {
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 2, LLCMB: 1,
		L1MSHRs: 2, WarmupCycles: 100, MeasureCycles: 100}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	m, err := newStructMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &m.cores[0]
	// Corrupt the invariant: fill the MSHR file without tracking any
	// pending completion.
	c.mshr.Allocate(1001)
	c.mshr.Allocate(1002)
	if !c.mshr.Full() {
		t.Fatal("MSHR not full after filling")
	}
	done, stalled := m.structMiss(0, c, trace.Access{Block: 2002})
	if !stalled {
		t.Fatalf("structMiss did not stall on a full MSHR (done=%d)", done)
	}
	if m.err == nil {
		t.Fatal("structMiss left no error for a full MSHR with empty pending")
	}
	if c.blockedUntil <= m.now {
		t.Fatal("core not parked after the invariant violation")
	}
	// The healthy path — pending non-empty — must keep stalling
	// without an error.
	m2, err := newStructMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2 := &m2.cores[0]
	c2.mshr.Allocate(1001)
	c2.mshr.Allocate(1002)
	c2.pending = append(c2.pending, pendingMiss{block: 1001, done: 77})
	c2.pendingMin = 77
	done, stalled = m2.structMiss(0, c2, trace.Access{Block: 2002})
	if !stalled || done != 77 {
		t.Fatalf("healthy MSHR-full stall = (%d, %v), want (77, true)", done, stalled)
	}
	if m2.err != nil {
		t.Fatalf("healthy stall produced an error: %v", m2.err)
	}
}

// The warm-start image cache must hold an entry after a structural run
// and replay it into a pooled machine exactly (covered value-wise by
// TestMachinePoolEquivalence; this pins the mechanism itself).
func TestPrefillImageMemoized(t *testing.T) {
	cfg := StructuralConfig{Workload: workload.Suite()[0], CoreType: tech.OoO, Cores: 4, LLCMB: 1,
		WarmupCycles: 500, MeasureCycles: 500}
	cc, err := cfg.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	banks := cc.base().banksFor()
	if _, err := RunStructural(cfg); err != nil {
		t.Fatal(err)
	}
	key := prefillKey{
		instrFootprintMB: cc.Workload.InstrFootprintMB,
		banks:            banks,
		bankBytes:        int(cc.LLCMB * 1024 * 1024 / float64(banks)),
	}
	img, ok := prefillImages.load(key)
	if !ok {
		t.Fatal("no warm-start image memoized after a structural run")
	}
	if len(img.llc) != banks || len(img.victims) != banks {
		t.Fatalf("image has %d/%d banks, want %d", len(img.llc), len(img.victims), banks)
	}
	occ := 0
	for _, b := range img.llc {
		occ += b.Occupancy()
	}
	if occ == 0 {
		t.Fatal("memoized warm-start image is empty")
	}
}

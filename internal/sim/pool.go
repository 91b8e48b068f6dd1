// The machine pool. A structural sweep — associativity, MSHR, bank, or
// core-count what-ifs — runs hundreds of points, and before this pool
// every point paid to allocate and zero a multi-MB LLC tag image, per-
// core L1 arrays, and the kernel's scheduling state, only to discard
// them milliseconds later. Machines are instead keyed by their
// allocation geometry (machineShape) and recycled: a finished machine
// returns to the pool, and the next point of the same shape resets it
// in place (structMachine.reset restores cold state exactly — the
// pooled-vs-fresh golden test asserts byte-identical results). The
// warm-start LLC image is memoized separately (prefillImages), so a
// recycled machine replays it with array copies instead of re-inserting
// the workload's whole resident footprint. Both live in keyedPools,
// which release them once a sweep stops using them for two GC cycles.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"scaleout/internal/cache"
	"scaleout/internal/tech"
)

// machineShape is everything that determines a structural machine's
// allocation sizes — and therefore which configurations can reuse its
// arrays. Semantics (workload, seed, latencies) are deliberately
// excluded: reset re-derives them from the new configuration.
type machineShape struct {
	cores     int
	banks     int
	bankBytes int
	l1iBytes  int
	l1dBytes  int
	l1Ways    int
	mshrs     int
	chans     int
	dirCores  int
}

// shapeOf computes the allocation geometry of a defaults-applied
// configuration, mirroring the sizing rules in newStructMachine and
// newKernel.
func shapeOf(cfg StructuralConfig) machineShape {
	spec := tech.Cores(cfg.CoreType)
	banks := cfg.base().banksFor()
	return machineShape{
		cores:     cfg.Cores,
		banks:     banks,
		bankBytes: int(cfg.LLCMB * 1024 * 1024 / float64(banks)),
		l1iBytes:  spec.L1IKB * 1024,
		l1dBytes:  spec.L1DKB * 1024,
		l1Ways:    spec.L1Ways,
		mshrs:     cfg.L1MSHRs,
		chans:     cfg.MemChannels,
		dirCores:  min(cfg.Cores, 64),
	}
}

// keyedPools holds idle values by key. Reuse is deterministic: a value
// put back is what the next get for its key returns, on any goroutine
// (a sync.Pool would hide it in the releasing P's private slot, so a
// get scheduled on another P missed it at random). Retention follows
// the garbage collector instead of a count bound: every GC cycle ages
// the pools, and a value idle across two cycles is dropped — so an
// idle process pins no simulator memory — and a key with nothing left
// leaves the maps, so however many distinct keys requests bring, the
// maps hold only what was released since the last two GC cycles.
type keyedPools[K comparable] struct {
	mu  sync.Mutex
	cur map[K][]any // released or reused since the last GC
	old map[K][]any // idle since the GC before that; dropped at the next
}

// get removes and returns the most recently released value for key,
// or nil.
func (k *keyedPools[K]) get(key K) any {
	k.mu.Lock()
	defer k.mu.Unlock()
	if v := pop(k.cur, key); v != nil {
		return v
	}
	return pop(k.old, key)
}

// peek returns the most recently released value for key without
// taking it, marking it used so it survives the next GC; nil if none.
func (k *keyedPools[K]) peek(key K) any {
	k.mu.Lock()
	defer k.mu.Unlock()
	if vs := k.cur[key]; len(vs) > 0 {
		return vs[len(vs)-1]
	}
	v := pop(k.old, key)
	if v != nil {
		k.putLocked(key, v)
	}
	return v
}

// put makes v available to later gets for key.
func (k *keyedPools[K]) put(key K, v any) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.putLocked(key, v)
}

func (k *keyedPools[K]) putLocked(key K, v any) {
	if k.cur == nil {
		k.cur = map[K][]any{}
	}
	k.cur[key] = append(k.cur[key], v)
}

// age drops every value idle since the previous call; see onEveryGC.
func (k *keyedPools[K]) age() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.old, k.cur = k.cur, nil
}

// drain forgets every value.
func (k *keyedPools[K]) drain() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.cur, k.old = nil, nil
}

// pop removes and returns the last value under key, deleting the key
// once it holds nothing.
func pop[K comparable](m map[K][]any, key K) any {
	vs := m[key]
	if len(vs) == 0 {
		return nil
	}
	v := vs[len(vs)-1]
	if len(vs) == 1 {
		delete(m, key)
	} else {
		vs[len(vs)-1] = nil
		m[key] = vs[:len(vs)-1]
	}
	return v
}

// gcSentinel is an object whose finalizer marks a GC cycle. It holds a
// pointer so the allocator never batches it with other tiny objects,
// which would delay its finalizer indefinitely.
type gcSentinel struct{ _ *byte }

// onEveryGC calls f (on the finalizer goroutine) after each garbage
// collection: each cycle finds the previous sentinel unreachable, runs
// its finalizer, and the finalizer arms the next one.
func onEveryGC(f func()) {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		f()
		onEveryGC(f)
	})
}

func init() {
	onEveryGC(func() {
		machinePool.age()
		prefillImages.age()
	})
}

// machinePool holds idle structural machines by allocation shape.
var machinePool keyedPools[machineShape]

// machinePoolDisabled turns acquire/release into plain construction and
// disposal; see UseMachinePool.
var machinePoolDisabled atomic.Bool

// UseMachinePool selects whether RunStructural recycles machines
// through the shape-keyed pool (true, the default) or constructs a
// fresh machine per run (false). Results are byte-identical either way;
// the switch exists so benchmark harnesses and the pool's own golden
// tests can measure and verify the reuse path. Disabling drains the
// pool.
func UseMachinePool(on bool) {
	machinePoolDisabled.Store(!on)
	if !on {
		machinePool.drain()
	}
}

// acquireStructMachine returns a machine ready to run cfg: a pooled
// machine of matching shape reset in place, or a fresh construction.
func acquireStructMachine(cfg StructuralConfig) (*structMachine, error) {
	if !machinePoolDisabled.Load() {
		if m, ok := machinePool.get(shapeOf(cfg)).(*structMachine); ok {
			if err := m.reset(cfg); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	return newStructMachine(cfg)
}

// releaseStructMachine returns a finished machine to the pool.
func releaseStructMachine(m *structMachine) {
	if machinePoolDisabled.Load() {
		return
	}
	machinePool.put(m.shape, m)
}

// prefillKey identifies a warm-start LLC image: the fill replays the
// workload's resident footprint (instruction blocks, the shared
// secondary working set, the shared pool — the latter two have fixed
// sizes) into the bank geometry, so those are the only inputs.
type prefillKey struct {
	instrFootprintMB float64
	banks            int
	bankBytes        int
}

// prefillImage is the memoized post-fill state of every LLC bank and
// victim cache (frozen clones, only ever read via CopyStateFrom), plus
// the off-chip traffic the fill generated.
type prefillImage struct {
	llc          []*cache.SetAssoc
	victims      []*cache.Victim
	offChipLines uint64
}

// prefillImageCache holds warm-start images by key, released like idle
// machines once no sweep uses them — each image clones a full LLC. A
// released key just replays its fill on the next miss.
type prefillImageCache struct{ keyedPools[prefillKey] }

var prefillImages prefillImageCache

// load returns key's image if one is held. Images are read-only, so
// the image stays in the cache: concurrent machines of the same key
// share it rather than each replaying the fill.
func (c *prefillImageCache) load(key prefillKey) (*prefillImage, bool) {
	img, ok := c.peek(key).(*prefillImage)
	return img, ok
}

// store makes a freshly filled image available to later loads.
func (c *prefillImageCache) store(key prefillKey, img *prefillImage) { c.put(key, img) }

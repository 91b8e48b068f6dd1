package sim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// randNet draws one interconnect across all five kinds with randomly
// perturbed WireDelta, Concentration, ExpressLinks, TileEdge, and
// LinkBits — the fields the old symbolic wire form could not carry.
func randNet(rng *rand.Rand, cores int) noc.Config {
	kinds := []noc.Kind{noc.Ideal, noc.Crossbar, noc.Mesh, noc.FlattenedButterfly, noc.NOCOut}
	net := noc.New(kinds[rng.Intn(len(kinds))], cores)
	if rng.Intn(2) == 0 {
		net.WireDelta = -3 + 6*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		net.TileEdge = 1 + 2*rng.Float64()
	}
	if rng.Intn(3) == 0 {
		net.LinkBits = 32 << rng.Intn(4)
	}
	if net.Kind == noc.NOCOut {
		if rng.Intn(2) == 0 {
			net.Concentration = 1 + rng.Intn(4)
		}
		if rng.Intn(2) == 0 {
			net.ExpressLinks = true
		}
		if rng.Intn(2) == 0 {
			net.LLCTiles = 4 << rng.Intn(3)
		}
	}
	return net
}

// randWorkload perturbs a suite workload into a valid non-suite spec.
func randWorkload(rng *rand.Rand) workload.Workload {
	names := workload.Names()
	w, _ := workload.ByName(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		return w
	}
	w.Name = w.Name + " (perturbed)"
	w.APKI *= 0.5 + rng.Float64()
	w.MPKIFloor *= rng.Float64()
	w.MPKI1 = w.MPKIFloor + (w.MPKI1-w.MPKIFloor)*(0.5+rng.Float64())
	w.Alpha = 0.1 + 1.5*rng.Float64()
	w.SnoopPct *= rng.Float64() * 2
	w.SharedFrac = rng.Float64() * 0.1
	bi := make(map[tech.CoreType]float64)
	for t, v := range w.BaseIPC {
		bi[t] = v * (0.5 + 0.5*rng.Float64())
	}
	w.BaseIPC = bi
	return w
}

// randBase draws one randomized base configuration — the shared
// generator behind the round-trip property test and FuzzUnmarshalWire's
// seed corpus (both walk it from seed 7).
func randBase(rng *rand.Rand) Config {
	cores := 1 << rng.Intn(8)
	base := Config{
		Workload: randWorkload(rng),
		CoreType: tech.CoreType(rng.Intn(3)),
		Cores:    cores,
		LLCMB:    0.5 * float64(1+rng.Intn(32)),
		Net:      randNet(rng, cores),
	}
	if rng.Intn(2) == 0 {
		base.MemChannels = 1 + rng.Intn(8)
	}
	if rng.Intn(2) == 0 {
		base.WarmupCycles = 1000 * (1 + rng.Intn(50))
	}
	if rng.Intn(2) == 0 {
		base.MeasureCycles = 1000 * (1 + rng.Intn(100))
	}
	if rng.Intn(2) == 0 {
		base.Seed = rng.Uint64()
	}
	return base
}

// randStructural reshapes a base configuration into the structural
// variant the property test uses for odd samples.
func randStructural(rng *rand.Rand, base Config) StructuralConfig {
	cfg := StructuralConfig{
		Workload: base.Workload, CoreType: base.CoreType, Cores: base.Cores,
		LLCMB: base.LLCMB, Net: base.Net, MemChannels: base.MemChannels,
		WarmupCycles: base.WarmupCycles, MeasureCycles: base.MeasureCycles,
		Seed: base.Seed,
	}
	if rng.Intn(2) == 0 {
		cfg.L1MSHRs = 4 << rng.Intn(5)
	}
	return cfg
}

// TestWireRoundTripRandomized is the wire form's property test: for
// randomized configurations across every noc kind — perturbed
// WireDelta/Concentration/ExpressLinks/TileEdge/LinkBits and mutated
// non-suite workloads — UnmarshalWire(MarshalWire(c)) must re-derive
// exactly c's memo key, and Wire's lossless round-trip guard must hold. This is the invariant that keeps cluster output
// byte-identical to single-node output for every representable point.
func TestWireRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		base := randBase(rng)

		if i%2 == 0 {
			cfg := base
			cfg.DisableSWScaling = rng.Intn(2) == 0
			data, err := cfg.MarshalWire()
			if err != nil {
				t.Fatalf("sample %d: MarshalWire: %v", i, err)
			}
			wc, err := UnmarshalWire(data)
			if err != nil {
				t.Fatalf("sample %d: UnmarshalWire: %v", i, err)
			}
			dec, err := wc.Decode()
			if err != nil {
				t.Fatalf("sample %d: Decode: %v", i, err)
			}
			got, ok := dec.(Config)
			if !ok {
				t.Fatalf("sample %d: Decode returned %T", i, dec)
			}
			if got.Key() != cfg.Key() {
				t.Fatalf("sample %d: round-trip key mismatch:\n got %s\nwant %s", i, got.Key(), cfg.Key())
			}
			if _, err := cfg.Wire(); err != nil {
				t.Fatalf("sample %d: Wire round-trip guard: %v", i, err)
			}
		} else {
			cfg := randStructural(rng, base)
			data, err := cfg.MarshalWire()
			if err != nil {
				t.Fatalf("sample %d: structural MarshalWire: %v", i, err)
			}
			wc, err := UnmarshalWire(data)
			if err != nil {
				t.Fatalf("sample %d: structural UnmarshalWire: %v", i, err)
			}
			dec, err := wc.Decode()
			if err != nil {
				t.Fatalf("sample %d: structural Decode: %v", i, err)
			}
			got, ok := dec.(StructuralConfig)
			if !ok {
				t.Fatalf("sample %d: Decode returned %T", i, dec)
			}
			if got.Key() != cfg.Key() {
				t.Fatalf("sample %d: structural round-trip key mismatch:\n got %s\nwant %s", i, got.Key(), cfg.Key())
			}
			if _, err := cfg.Wire(); err != nil {
				t.Fatalf("sample %d: structural Wire round-trip guard: %v", i, err)
			}
		}
	}
}

// TestWireVersionRejected: a wire config with any other version is
// rejected with a typed *WireVersionError before the body is even
// looked at — fields from a future schema must not fail as "unknown
// field" ahead of the version check.
func TestWireVersionRejected(t *testing.T) {
	_, err := UnmarshalWire([]byte(`{"wire_version": 99, "field_from_the_future": true}`))
	var ve *WireVersionError
	if !errors.As(err, &ve) || ve.Version != 99 {
		t.Fatalf("UnmarshalWire = %v, want *WireVersionError{99}", err)
	}
	if _, err := UnmarshalWire([]byte(`{"kind": "sim"}`)); err == nil {
		t.Fatal("UnmarshalWire accepted a config without wire_version")
	}
	// At the supported version, the strict decode's own error stands.
	_, err = UnmarshalWire([]byte(`{"wire_version": 1, "field_from_the_future": true}`))
	if err == nil || errors.As(err, &ve) || !strings.Contains(err.Error(), "field_from_the_future") {
		t.Fatalf("UnmarshalWire(unknown field) = %v, want a strict-decode error naming the field", err)
	}
}

// TestWireRejectsInvalid: decode validates with the same rules that
// gate locally constructed points.
func TestWireRejectsInvalid(t *testing.T) {
	w, _ := workload.ByName(workload.Names()[0])
	cfg := Config{Workload: w, CoreType: tech.OoO, Cores: 4, LLCMB: 2}
	wc, err := cfg.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}

	bad := wc
	bad.Workload.Alpha = 17 // outside Validate's (0, 2]
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an out-of-range workload")
	}

	bad = wc
	bad.Core = "quantum"
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an unknown core token")
	}

	bad = wc
	bad.Net.Kind = "tokenring"
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an unknown net kind")
	}

	bad = wc
	bad.Kind = "analytic"
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted an unknown simulator kind")
	}

	bad = wc
	bad.L1MSHRs = 8 // structural-only field on a sim config
	if _, err := bad.Decode(); err == nil {
		t.Fatal("Decode accepted l1_mshrs on a sim config")
	}

	invalid := cfg
	invalid.Cores = 0
	if _, err := invalid.Wire(); err == nil {
		t.Fatal("Wire accepted an invalid config")
	}
	if p, ok := invalid.WirePayload().(Unroutable); !ok || p.Err == nil {
		t.Fatalf("WirePayload = %#v, want an Unroutable marker", invalid.WirePayload())
	}
}

// TestWireCarriesFormerlyUnroutable: the exact shapes the legacy
// symbolic wire form declined — WireDelta meshes (ch4's scale-limited
// pods), express-linked concentrated NOC-Out, custom tile edges,
// perturbed workloads — must now round-trip to the same key.
func TestWireCarriesFormerlyUnroutable(t *testing.T) {
	w, _ := workload.ByName(workload.Names()[0])

	mesh := noc.New(noc.Mesh, 64)
	mesh.WireDelta = -0.25 * mesh.OneWayLatency()

	nocOut := noc.New(noc.NOCOut, 128)
	nocOut.Concentration = 2
	nocOut.ExpressLinks = true

	edge := noc.New(noc.FlattenedButterfly, 16)
	edge.TileEdge = 2.5

	perturbed := w
	perturbed.APKI *= 1.5

	for name, cfg := range map[string]Config{
		"wire-delta":        {Workload: w, CoreType: tech.OoO, Cores: 64, LLCMB: 4, Net: mesh},
		"nocout-scaled":     {Workload: w, CoreType: tech.InOrder, Cores: 128, LLCMB: 8, Net: nocOut},
		"tile-edge":         {Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4, Net: edge},
		"non-suite":         {Workload: perturbed, CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		"conventional-core": {Workload: w, CoreType: tech.Conventional, Cores: 4, LLCMB: 2},
	} {
		data, err := cfg.MarshalWire()
		if err != nil {
			t.Fatalf("%s: MarshalWire: %v", name, err)
		}
		wc, err := UnmarshalWire(data)
		if err != nil {
			t.Fatalf("%s: UnmarshalWire: %v", name, err)
		}
		dec, err := wc.Decode()
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if dec.(Config).Key() != cfg.Key() {
			t.Fatalf("%s: round-trip key mismatch", name)
		}
	}
}

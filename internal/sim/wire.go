package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// WireVersion is the version of the canonical wire encoding this
// process speaks. A receiver that decodes a WireConfig with any other
// wire_version rejects it with a *WireVersionError — never a guess at
// compatibility — so mixed-version clusters fail loudly and per-point
// instead of corrupting memo keys.
const WireVersion = 1

// WireConfig is the versioned, self-describing wire form of a Config or
// StructuralConfig: the single point representation every layer shares,
// from figure generators through the cluster coordinator to a replica's
// /v1/sweep handler. Unlike the legacy symbolic sweep fields, it
// carries the complete interconnect (noc.Wire, including WireDelta,
// Concentration, ExpressLinks, TileEdge, LinkBits) and the full
// workload specification (workload.Wire), so *every* point a figure can
// construct is representable — nothing silently "never leaves the
// process".
//
// Producers build one with Config.Wire or StructuralConfig.Wire, which
// canonicalize first and enforce a lossless round trip; consumers
// decode bytes with UnmarshalWire and materialize the configuration
// with Decode. The canonical JSON encoding is also the point's
// identity: Config.Key is KeyTag plus its SHA-256. The key is always
// re-derived from the decoded form, never carried on the wire.
type WireConfig struct {
	// Version is the encoding version (WireVersion); wire_version is
	// the first field a receiver checks.
	Version int `json:"wire_version"`

	// Kind selects the simulator: "sim" or "structural".
	Kind string `json:"kind"`

	Workload workload.Wire `json:"workload"`

	// Core is the core microarchitecture token: "conventional", "ooo",
	// or "in-order".
	Core string `json:"core"`

	Cores int     `json:"cores"`
	LLCMB float64 `json:"llc_mb"`

	Net noc.Wire `json:"net"`

	MemChannels   int    `json:"mem_channels"`
	WarmupCycles  int    `json:"warmup_cycles"`
	MeasureCycles int    `json:"measure_cycles"`
	Seed          uint64 `json:"seed"`

	// DisableSWScaling applies to kind "sim" only.
	DisableSWScaling bool `json:"disable_sw_scaling,omitempty"`
	// L1MSHRs applies to kind "structural" only.
	L1MSHRs int `json:"l1_mshrs,omitempty"`
}

// WireVersionError reports a WireConfig whose wire_version this process
// does not speak. The serve layer maps it to a structured 400 carrying
// the offending version; the cluster coordinator treats that response
// as permanent for the replica (no retry, no markDown).
type WireVersionError struct {
	// Version is the wire_version the peer sent.
	Version int
}

// Error names the unsupported version and the one this process speaks.
func (e *WireVersionError) Error() string {
	return fmt.Sprintf("sim: unsupported wire_version %d (this process speaks %d)", e.Version, WireVersion)
}

// Unroutable is the route payload of an engine point whose
// configuration could not be converted to the wire form — one a future
// Config field is not yet carried for (the round-trip check in Wire
// catches that regression). An invalid configuration has an empty key,
// so the engine runs it locally and never asks for its payload. Shipping
// this marker instead of a nil payload keeps the failure visible: the
// cluster coordinator counts and logs it before declining, so
// representability gaps surface in /statsz rather than silently
// computing locally.
type Unroutable struct {
	// Key is the point's key (empty for an invalid configuration); Err
	// says why it cannot travel.
	Key string
	Err error
}

// coreWireName maps a core type to its wire token; ok is false for
// values outside the enum.
func coreWireName(t tech.CoreType) (string, bool) {
	switch t {
	case tech.Conventional:
		return "conventional", true
	case tech.OoO:
		return "ooo", true
	case tech.InOrder:
		return "in-order", true
	default:
		return "", false
	}
}

// parseWireCore is coreWireName's inverse.
func parseWireCore(name string) (tech.CoreType, bool) {
	switch name {
	case "conventional":
		return tech.Conventional, true
	case "ooo":
		return tech.OoO, true
	case "in-order":
		return tech.InOrder, true
	default:
		return 0, false
	}
}

// KeyTag prefixes every point key and names the identity scheme: a
// key is KeyTag followed by the hex SHA-256 of the point's canonical
// wire bytes (MarshalWire). Changing how keys are derived changes the
// tag, so persisted identities from another scheme (store logs,
// calibration anchors) are recognizably foreign instead of silently
// missing.
const KeyTag = "wire1:"

// keyOf derives the point key from canonical wire bytes.
func keyOf(wire []byte) string {
	sum := sha256.Sum256(wire)
	var buf [len(KeyTag) + 2*sha256.Size]byte
	copy(buf[:], KeyTag)
	hex.Encode(buf[len(KeyTag):], sum[:])
	return string(buf[:])
}

// wireOf builds the wire form of a canonical configuration.
func (cc Config) wireOf() (WireConfig, error) {
	core, ok := coreWireName(cc.CoreType)
	if !ok {
		return WireConfig{}, fmt.Errorf("sim: core type %v has no wire name", cc.CoreType)
	}
	return WireConfig{
		Version:          WireVersion,
		Kind:             "sim",
		Workload:         cc.Workload.Wire(),
		Core:             core,
		Cores:            cc.Cores,
		LLCMB:            cc.LLCMB,
		Net:              cc.Net.Wire(),
		MemChannels:      cc.MemChannels,
		WarmupCycles:     cc.WarmupCycles,
		MeasureCycles:    cc.MeasureCycles,
		Seed:             cc.Seed,
		DisableSWScaling: cc.DisableSWScaling,
	}, nil
}

// wireOf builds the wire form of a canonical structural configuration.
func (cc StructuralConfig) wireOf() (WireConfig, error) {
	core, ok := coreWireName(cc.CoreType)
	if !ok {
		return WireConfig{}, fmt.Errorf("sim: core type %v has no wire name", cc.CoreType)
	}
	return WireConfig{
		Version:       WireVersion,
		Kind:          "structural",
		Workload:      cc.Workload.Wire(),
		Core:          core,
		Cores:         cc.Cores,
		LLCMB:         cc.LLCMB,
		Net:           cc.Net.Wire(),
		MemChannels:   cc.MemChannels,
		WarmupCycles:  cc.WarmupCycles,
		MeasureCycles: cc.MeasureCycles,
		Seed:          cc.Seed,
		L1MSHRs:       cc.L1MSHRs,
	}, nil
}

// simulatorConfig is what the identity helpers below need of Config
// and StructuralConfig.
type simulatorConfig[C any] interface {
	Canonical() (C, error)
	wireOf() (WireConfig, error)
}

// canonicalWire canonicalizes a configuration and encodes its wire
// form: the bytes MarshalWire returns and Key hashes.
func canonicalWire[C simulatorConfig[C]](c C) (C, []byte, error) {
	cc, err := c.Canonical()
	if err != nil {
		return c, nil, err
	}
	w, err := cc.wireOf()
	if err != nil {
		return c, nil, err
	}
	data, err := json.Marshal(w)
	return cc, data, err
}

func canonicalKey[C simulatorConfig[C]](c C) (C, string, error) {
	cc, data, err := canonicalWire(c)
	if err != nil {
		return c, "", err
	}
	return cc, keyOf(data), nil
}

// checkedWire is Wire for either configuration type; decode is the
// wire form's decoder back to that type.
func checkedWire[C simulatorConfig[C]](c C, decode func(WireConfig) (C, error)) (WireConfig, error) {
	cc, err := c.Canonical()
	if err != nil {
		return WireConfig{}, fmt.Errorf("sim: invalid config: %w", err)
	}
	w, err := cc.wireOf()
	if err != nil {
		return WireConfig{}, err
	}
	dec, err := decode(w)
	if err != nil {
		return WireConfig{}, fmt.Errorf("sim: wire round-trip: %w", err)
	}
	if dc, err := dec.Canonical(); err != nil || !reflect.DeepEqual(dc, cc) {
		return WireConfig{}, fmt.Errorf("sim: wire round-trip changes the %T — a field is not carried by WireConfig", c)
	}
	return w, nil
}

// Wire converts the configuration to its canonical wire form. The
// configuration is canonicalized first (defaults applied), so two
// Configs with equal Keys marshal identically; the conversion then
// decodes its own output and requires the decoded canonical
// configuration to equal the canonical input — the loud failure that
// catches a new Config field the wire form does not carry yet (which
// would otherwise share a key with, and be served the result of, the
// configuration without it). An error here makes the point unroutable
// (see WirePayload), never silently lossy.
func (c Config) Wire() (WireConfig, error) { return checkedWire(c, WireConfig.simConfig) }

// Wire converts the structural configuration to its canonical wire
// form, with the same canonicalization and round-trip enforcement as
// Config.Wire.
func (c StructuralConfig) Wire() (WireConfig, error) {
	return checkedWire(c, WireConfig.structuralConfig)
}

// MarshalWire encodes the configuration's canonical wire form as JSON:
// the bytes a cluster coordinator ships and the bytes Key hashes.
func (c Config) MarshalWire() ([]byte, error) {
	_, data, err := canonicalWire(c)
	return data, err
}

// MarshalWire encodes the structural configuration's canonical wire
// form as JSON.
func (c StructuralConfig) MarshalWire() ([]byte, error) {
	_, data, err := canonicalWire(c)
	return data, err
}

// CanonicalKey returns the defaults-applied configuration and its key
// in one pass — what a caller that needs both (the tiered evaluator)
// uses so each point is canonicalized and hashed once. It errors for
// invalid configurations and for ones the wire form cannot encode.
func (c Config) CanonicalKey() (Config, string, error) { return canonicalKey(c) }

// CanonicalKey is Config.CanonicalKey for the structural simulator.
func (c StructuralConfig) CanonicalKey() (StructuralConfig, string, error) {
	return canonicalKey(c)
}

// Key is the point's identity — the memo, store, and rendezvous key:
// KeyTag plus the SHA-256 of its canonical wire bytes. Two Configs
// that differ only in fields the simulator defaults identically (an
// explicit Seed 1 against a zero Seed) share a key, and the key
// depends on neither Go field names nor enum values. An invalid
// configuration has the empty key, which experiment engines run
// unmemoized (running it reports the validation error).
func (c Config) Key() string {
	_, key, _ := canonicalKey(c)
	return key
}

// Key is the structural point's identity; see Config.Key. The
// simulator kind is part of the hashed wire bytes, so a structural
// point never shares a key with a statistical one.
func (c StructuralConfig) Key() string {
	_, key, _ := canonicalKey(c)
	return key
}

// UnmarshalWire decodes one wire-form configuration strictly (unknown
// fields rejected). A document that fails the strict decode, or
// carries another wire_version, is probed for its version before the
// failure is reported — an unknown wire_version returns a
// *WireVersionError even if the rest of the document has fields this
// process has never heard of. The returned WireConfig is syntactically
// decoded but not yet validated; Decode materializes and validates the
// configuration.
func UnmarshalWire(data []byte) (WireConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w WireConfig
	derr := dec.Decode(&w)
	if derr == nil && w.Version == WireVersion {
		return w, nil
	}
	var v struct {
		Version *int `json:"wire_version"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return WireConfig{}, fmt.Errorf("sim: bad wire config: %w", err)
	}
	if v.Version == nil {
		return WireConfig{}, fmt.Errorf("sim: wire config missing wire_version")
	}
	if *v.Version != WireVersion {
		return WireConfig{}, &WireVersionError{Version: *v.Version}
	}
	return WireConfig{}, fmt.Errorf("sim: bad wire config: %w", derr)
}

// Decode materializes the configuration the wire form describes — a
// Config for kind "sim", a StructuralConfig for kind "structural" —
// validated by the same Canonical rules that gate every locally
// constructed point (workload ranges included). The memo key is always
// re-derived from the returned value; the wire carries no key to trust.
func (w WireConfig) Decode() (any, error) {
	switch w.Kind {
	case "sim":
		c, err := w.simConfig()
		if err != nil {
			return nil, err
		}
		return c, nil
	case "structural":
		c, err := w.structuralConfig()
		if err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("sim: unknown wire kind %q (want sim or structural)", w.Kind)
	}
}

// fields decodes the parts shared by both simulator kinds.
func (w WireConfig) fields() (workload.Workload, tech.CoreType, noc.Config, error) {
	core, ok := parseWireCore(w.Core)
	if !ok {
		return workload.Workload{}, 0, noc.Config{}, fmt.Errorf("sim: unknown wire core %q (want conventional, ooo, or in-order)", w.Core)
	}
	net, err := w.Net.Config()
	if err != nil {
		return workload.Workload{}, 0, noc.Config{}, err
	}
	return w.Workload.Workload(), core, net, nil
}

func (w WireConfig) simConfig() (Config, error) {
	if w.L1MSHRs != 0 {
		return Config{}, fmt.Errorf("sim: l1_mshrs on a %q wire config", w.Kind)
	}
	wl, core, net, err := w.fields()
	if err != nil {
		return Config{}, err
	}
	c := Config{
		Workload: wl, CoreType: core, Cores: w.Cores, LLCMB: w.LLCMB,
		Net: net, MemChannels: w.MemChannels,
		WarmupCycles: w.WarmupCycles, MeasureCycles: w.MeasureCycles,
		Seed: w.Seed, DisableSWScaling: w.DisableSWScaling,
	}
	if _, err := c.Canonical(); err != nil {
		return Config{}, err
	}
	return c, nil
}

func (w WireConfig) structuralConfig() (StructuralConfig, error) {
	if w.DisableSWScaling {
		return StructuralConfig{}, fmt.Errorf("sim: disable_sw_scaling on a %q wire config", w.Kind)
	}
	wl, core, net, err := w.fields()
	if err != nil {
		return StructuralConfig{}, err
	}
	c := StructuralConfig{
		Workload: wl, CoreType: core, Cores: w.Cores, LLCMB: w.LLCMB,
		Net: net, MemChannels: w.MemChannels,
		WarmupCycles: w.WarmupCycles, MeasureCycles: w.MeasureCycles,
		Seed: w.Seed, L1MSHRs: w.L1MSHRs,
	}
	if _, err := c.Canonical(); err != nil {
		return StructuralConfig{}, err
	}
	return c, nil
}

// WirePayload returns the route payload of this configuration's engine
// point — built only when the engine routes a memo miss: its wire form,
// or an Unroutable marker when conversion fails, so the failure is
// counted at the coordinator instead of vanishing into a nil payload.
func (c Config) WirePayload() any {
	w, err := c.Wire()
	if err != nil {
		return Unroutable{Key: c.Key(), Err: err}
	}
	return w
}

// WirePayload returns the route payload for a structural point; see
// Config.WirePayload.
func (c StructuralConfig) WirePayload() any {
	w, err := c.Wire()
	if err != nil {
		return Unroutable{Key: c.Key(), Err: err}
	}
	return w
}

// Run executes the statistical simulator on the configuration — the
// method form of Run(c), giving generic engine points (exp.SimPoint)
// one call surface across both simulator kinds.
func (c Config) Run() (Result, error) { return Run(c) }

// Run executes the structural simulator on the configuration; see
// Config.Run.
func (c StructuralConfig) Run() (StructuralResult, error) { return RunStructural(c) }

package tier

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
)

// Calibration is what cmd/calibrate emits (calibration.json) and the
// tiered evaluator loads: a per-region error table that sizes the
// escalation bands, plus the anchor store — genuine simulator results,
// keyed by the same point keys (sim.Config.Key) the experiment engine
// memoizes under, that exact-tier evaluation serves without
// re-simulating. Anchors round-trip through JSON exactly (Go prints
// float64 in the shortest form that re-parses to the same value), so an
// anchor-served figure is byte-identical to a freshly simulated one.
type Calibration struct {
	// Granularity selects how finely the design space is partitioned
	// into error regions; see RegionKey. Evaluator lookups must use the
	// same partition the table was built with, so it travels in the
	// file.
	Granularity int `json:"granularity"`

	// Safety is the multiplier applied to a region's measured maximum
	// relative error when sizing escalation bands — the margin between
	// "worst error we observed" and "worst error we guard against".
	Safety float64 `json:"safety"`

	// Regions is the certified error table, sorted by key.
	Regions []Region `json:"regions"`

	// SimAnchors and StructuralAnchors are the memoized simulator
	// results from the calibration run, sorted by key.
	SimAnchors        []SimAnchor        `json:"sim_anchors,omitempty"`
	StructuralAnchors []StructuralAnchor `json:"structural_anchors,omitempty"`
}

// Region is the measured surrogate error over one slice of the design
// space: every calibration point falling in the region contributes a
// relative-error sample of the surrogate's AppIPC prediction against
// the simulator's measurement.
type Region struct {
	// Key identifies the region; see RegionKey.
	Key string `json:"key"`
	// Samples is how many calibration points landed in the region.
	Samples int `json:"samples"`
	// MaxRelErr and MeanRelErr summarize |surrogate−sim|/sim over the
	// region's samples. MaxRelErr (times Safety) is the certified band.
	MaxRelErr  float64 `json:"max_rel_err"`
	MeanRelErr float64 `json:"mean_rel_err"`
}

// SimAnchor is one memoized statistical-simulator result.
type SimAnchor struct {
	// Key is the configuration's point key (sim.Config.Key).
	Key string `json:"key"`
	// Result is the simulator's measurement for that configuration.
	Result sim.Result `json:"result"`
}

// StructuralAnchor is one memoized structural-simulator result.
type StructuralAnchor struct {
	// Key is the configuration's point key (sim.StructuralConfig.Key).
	Key string `json:"key"`
	// Result is the structural simulator's measurement.
	Result sim.StructuralResult `json:"result"`
}

// DefaultSafety is the band margin applied when a Calibration (or
// calibrate invocation) does not choose one.
const DefaultSafety = 1.25

// DefaultGranularity is the region partition used when none is chosen:
// the finest level (kind, core, net, cores bucket, LLC bucket).
const DefaultGranularity = 3

// maxCertifiableRelErr caps what the fast tier will serve: a region
// whose worst observed relative error exceeds this is treated as
// uncertified — its points always escalate — because a band that wide
// makes the surrogate's answer useless anyway.
const maxCertifiableRelErr = 0.5

// RegionKey maps one simulator configuration onto its error region.
// Granularity 1 partitions by simulator kind and core type; 2 adds the
// interconnect kind; 3 (the default) adds core-count and LLC-capacity
// buckets. kind is "sim" or "structural"; the configuration fields are
// from the canonical (defaults-applied) config.
func RegionKey(granularity int, kind string, core tech.CoreType, net noc.Kind, cores int, llcMB float64) string {
	key := kind + "/" + core.String()
	if granularity >= 2 {
		key += "/" + net.String()
	}
	if granularity >= 3 {
		key += "/" + coresBucket(cores) + "/" + llcBucket(llcMB)
	}
	return key
}

func coresBucket(n int) string {
	switch {
	case n <= 8:
		return "c1-8"
	case n <= 16:
		return "c9-16"
	case n <= 32:
		return "c17-32"
	case n <= 64:
		return "c33-64"
	default:
		return "c65+"
	}
}

func llcBucket(mb float64) string {
	switch {
	case mb <= 1:
		return "llc<=1"
	case mb <= 2:
		return "llc<=2"
	case mb <= 4:
		return "llc<=4"
	case mb <= 8:
		return "llc<=8"
	default:
		return "llc>8"
	}
}

// simRegionKey and structuralRegionKey key canonical configurations.
func simRegionKey(g int, cc sim.Config) string {
	return RegionKey(g, "sim", cc.CoreType, cc.Net.Kind, cc.Cores, cc.LLCMB)
}

func structuralRegionKey(g int, cc sim.StructuralConfig) string {
	return RegionKey(g, "structural", cc.CoreType, cc.Net.Kind, cc.Cores, cc.LLCMB)
}

// normalize applies defaults and sorts the table and anchors so the
// serialized form is deterministic.
func (c *Calibration) normalize() {
	if c.Granularity <= 0 {
		c.Granularity = DefaultGranularity
	}
	if c.Safety <= 0 {
		c.Safety = DefaultSafety
	}
	sort.Slice(c.Regions, func(i, j int) bool { return c.Regions[i].Key < c.Regions[j].Key })
	sort.Slice(c.SimAnchors, func(i, j int) bool { return c.SimAnchors[i].Key < c.SimAnchors[j].Key })
	sort.Slice(c.StructuralAnchors, func(i, j int) bool {
		return c.StructuralAnchors[i].Key < c.StructuralAnchors[j].Key
	})
}

// Save writes the calibration as indented JSON to path.
func (c *Calibration) Save(path string) error {
	c.normalize()
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// Load reads a calibration written by Save (cmd/calibrate -out). A
// file whose anchors are keyed under another point-identity scheme
// (keys without the current sim.KeyTag) is refused: its anchors could
// never match a point, so exact mode would silently simulate
// everything.
func Load(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("tier: parse %s: %w", path, err)
	}
	stale := func(key string) error {
		if strings.HasPrefix(key, sim.KeyTag) {
			return nil
		}
		return fmt.Errorf("tier: %s: anchor keys predate the current point identity (want the %q tag); rerun cmd/calibrate to rebuild it", path, sim.KeyTag)
	}
	for _, a := range c.SimAnchors {
		if err := stale(a.Key); err != nil {
			return nil, err
		}
	}
	for _, a := range c.StructuralAnchors {
		if err := stale(a.Key); err != nil {
			return nil, err
		}
	}
	c.normalize()
	return &c, nil
}

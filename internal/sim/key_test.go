package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/keys.json from the current key derivation")

// keyExempt lists configuration leaves allowed to change without
// changing the key even though Canonical does not map them back —
// fields the simulators provably ignore. It is empty: every leaf of
// Config and StructuralConfig is part of the point's identity.
var keyExempt = map[string]string{}

// step is one hop from a configuration to a leaf: a struct field by
// index, or — always the last hop — a map entry by key.
type step struct {
	field int
	key   reflect.Value // valid for a map entry
	name  string
}

// leafPaths lists the path to every leaf of v: every scalar struct
// field and every entry of every map, recursively.
func leafPaths(v reflect.Value, prefix []step) [][]step {
	var out [][]step
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			path := append(append([]step(nil), prefix...), step{field: i, name: v.Type().Field(i).Name})
			out = append(out, leafPaths(v.Field(i), path)...)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			path := append(append([]step(nil), prefix...), step{key: k, name: fmt.Sprintf("[%v]", k)})
			out = append(out, path)
		}
	default:
		out = append(out, prefix)
	}
	return out
}

func pathName(path []step) string {
	var parts []string
	for _, s := range path {
		parts = append(parts, s.name)
	}
	return strings.ReplaceAll(strings.Join(parts, "."), ".[", "[")
}

// deepCopy copies a configuration value, maps included, so perturbing
// the copy never touches the original's shared maps.
func deepCopy(v reflect.Value) reflect.Value {
	switch v.Kind() {
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(deepCopy(v.Field(i)))
		}
		return out
	case reflect.Map:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		iter := v.MapRange()
		for iter.Next() {
			out.SetMapIndex(iter.Key(), deepCopy(iter.Value()))
		}
		return out
	default:
		return v
	}
}

// candidates returns replacement values for a leaf, nearest first: the
// next valid enum value, a 1% nudge either way for floats, +1 for
// integers, the negation for booleans, a suffixed string.
func candidates(v reflect.Value) []reflect.Value {
	t := v.Type()
	next := func(valid []int64) []reflect.Value {
		for i, x := range valid {
			if x == v.Int() {
				out := reflect.New(t).Elem()
				out.SetInt(valid[(i+1)%len(valid)])
				return []reflect.Value{out}
			}
		}
		return nil
	}
	switch t {
	case reflect.TypeOf(tech.CoreType(0)):
		return next([]int64{int64(tech.Conventional), int64(tech.OoO), int64(tech.InOrder)})
	case reflect.TypeOf(noc.Kind(0)):
		return next([]int64{int64(noc.Ideal), int64(noc.Crossbar), int64(noc.Mesh),
			int64(noc.FlattenedButterfly), int64(noc.NOCOut)})
	}
	var out []reflect.Value
	add := func(set func(reflect.Value)) {
		nv := reflect.New(t).Elem()
		set(nv)
		out = append(out, nv)
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if f == 0 {
			add(func(nv reflect.Value) { nv.SetFloat(0.5) })
		}
		add(func(nv reflect.Value) { nv.SetFloat(f * 0.99) })
		add(func(nv reflect.Value) { nv.SetFloat(f * 1.01) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		add(func(nv reflect.Value) { nv.SetInt(v.Int() + 1) })
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		add(func(nv reflect.Value) { nv.SetUint(v.Uint() + 1) })
	case reflect.Bool:
		add(func(nv reflect.Value) { nv.SetBool(!v.Bool()) })
	case reflect.String:
		add(func(nv reflect.Value) { nv.SetString(v.String() + "'") })
	}
	return out
}

// perturbed returns copies of cfg with the leaf at path replaced by
// each candidate value.
func perturbed(cfg any, path []step) []any {
	var out []any
	leaf := reflect.ValueOf(cfg)
	for _, s := range path {
		if s.key.IsValid() {
			leaf = leaf.MapIndex(s.key)
		} else {
			leaf = leaf.Field(s.field)
		}
	}
	for _, nv := range candidates(leaf) {
		root := reflect.New(reflect.TypeOf(cfg)).Elem()
		root.Set(deepCopy(reflect.ValueOf(cfg)))
		at := root
		for i, s := range path {
			if s.key.IsValid() {
				if i != len(path)-1 {
					panic("map entries must be leaves")
				}
				at.SetMapIndex(s.key, nv)
				break
			}
			at = at.Field(s.field)
			if i == len(path)-1 {
				at.Set(nv)
			}
		}
		out = append(out, root.Interface())
	}
	return out
}

// anyCanonicalKey is CanonicalKey for either configuration type.
func anyCanonicalKey(cfg any) (any, string, error) {
	switch c := cfg.(type) {
	case Config:
		return c.CanonicalKey()
	case StructuralConfig:
		return c.CanonicalKey()
	}
	panic(fmt.Sprintf("canonicalKey(%T)", cfg))
}

// TestKeyCoversEveryLeaf is the key-completeness guard. The key hashes
// the wire form, so a Config field the wire form does not carry would
// silently share a key with — and be served the cached result of — the
// configuration without it. The test walks every leaf of Config and
// StructuralConfig (the workload, its per-core-type maps, and the
// interconnect included), perturbs it to a valid value, and requires
// the key to change unless Canonical maps the perturbed configuration
// back to the original. A new field fails here until WireConfig
// carries it or keyExempt explains why it need not.
func TestKeyCoversEveryLeaf(t *testing.T) {
	w, _ := workload.ByName(workload.Names()[0])
	net := noc.New(noc.NOCOut, 32)
	net.WireDelta, net.Concentration = -0.5, 2
	bases := []any{
		Config{Workload: w, CoreType: tech.OoO, Cores: 32, LLCMB: 4, Net: net, MemChannels: 3,
			WarmupCycles: 1000, MeasureCycles: 2000, Seed: 5},
		StructuralConfig{Workload: w, CoreType: tech.InOrder, Cores: 32, LLCMB: 4, Net: net, MemChannels: 3,
			WarmupCycles: 1000, MeasureCycles: 2000, Seed: 5, L1MSHRs: 8},
	}
	for _, base := range bases {
		baseCanon, baseKey, err := anyCanonicalKey(base)
		if err != nil {
			t.Fatalf("%T base: %v", base, err)
		}
		paths := leafPaths(reflect.ValueOf(base), nil)
		if len(paths) < 40 {
			t.Fatalf("%T: walked only %d leaves", base, len(paths))
		}
		for _, path := range paths {
			name := fmt.Sprintf("%T.%s", base, pathName(path))
			if _, ok := keyExempt[name]; ok {
				continue
			}
			valid := false
			for _, cfg := range perturbed(base, path) {
				canon, key, err := anyCanonicalKey(cfg)
				if err != nil {
					continue // not a valid configuration; try the next value
				}
				valid = true
				if key == baseKey && !reflect.DeepEqual(canon, baseCanon) {
					t.Errorf("%s: perturbing the leaf keeps the key — the wire form does not carry it", name)
				}
			}
			if !valid {
				t.Errorf("%s: no candidate perturbation is a valid configuration; extend candidates", name)
			}
		}
	}
}

// pinnedKeyConfigs are the configurations whose keys testdata/keys.json
// pins: both simulators, every interconnect option the wire form
// carries, a custom workload, and a non-default seed.
func pinnedKeyConfigs() map[string]any {
	w, _ := workload.ByName(workload.Names()[0])
	mesh := noc.New(noc.Mesh, 64)
	mesh.WireDelta = -2.5
	nocOut := noc.New(noc.NOCOut, 128)
	nocOut.Concentration = 2
	nocOut.ExpressLinks = true
	custom := w
	custom.Name = "Synthetic Stress"
	custom.APKI *= 1.5
	custom.MLP = map[tech.CoreType]float64{tech.Conventional: 2.5, tech.OoO: 2, tech.InOrder: 1}
	return map[string]any{
		"sim-default-crossbar":       Config{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		"sim-explicit-crossbar":      Config{Workload: w, CoreType: tech.Conventional, Cores: 4, LLCMB: 2, Net: noc.New(noc.Crossbar, 4)},
		"sim-mesh-wire-delta":        Config{Workload: w, CoreType: tech.OoO, Cores: 64, LLCMB: 8, Net: mesh},
		"sim-nocout-express":         Config{Workload: w, CoreType: tech.InOrder, Cores: 128, LLCMB: 8, Net: nocOut},
		"sim-custom-workload":        Config{Workload: custom, CoreType: tech.OoO, Cores: 16, LLCMB: 4, DisableSWScaling: true},
		"sim-seed-42":                Config{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4, Seed: 42},
		"structural-default":         StructuralConfig{Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		"structural-nocout-mshrs-64": StructuralConfig{Workload: w, CoreType: tech.InOrder, Cores: 64, LLCMB: 4, Net: noc.New(noc.NOCOut, 64), L1MSHRs: 64},
	}
}

// TestPinnedKeys fails if any pinned configuration's key changes. Keys
// are persisted — store logs, calibration anchors, cluster shard
// ownership — so a change must be deliberate: bump KeyTag, rebuild the
// fixtures with -update-keys, and note the migration.
func TestPinnedKeys(t *testing.T) {
	path := filepath.Join("testdata", "keys.json")
	got := map[string]string{}
	for name, cfg := range pinnedKeyConfigs() {
		_, key, err := anyCanonicalKey(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(key, KeyTag) || len(key) != len(KeyTag)+64 {
			t.Fatalf("%s: key %q is not %q plus a hex SHA-256", name, key, KeyTag)
		}
		got[name] = key
	}
	if *updateKeys {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("testdata pins %d keys, test defines %d configurations", len(want), len(got))
	}
	for name, key := range got {
		if want[name] != key {
			t.Errorf("%s: key changed\n got %s\nwant %s", name, key, want[name])
		}
	}
}

// BenchmarkConfigKey times one point's identity: canonicalize, encode
// the wire form, hash.
func BenchmarkConfigKey(b *testing.B) {
	cfg := pinnedKeyConfigs()["sim-mesh-wire-delta"].(Config)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = cfg.Key()
	}
}

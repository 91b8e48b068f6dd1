package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

func suiteWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("workload %q not in suite", name)
	}
	return w
}

// TestWirePointRoundTrip: every valid configuration — including the
// shapes the retired symbolic form declined — converts to a SweepPoint
// whose "config" object re-resolves to the exact memo key, the
// invariant that keeps cluster results byte-identical.
func TestWirePointRoundTrip(t *testing.T) {
	w := suiteWorkload(t, workload.Names()[0])
	delta := noc.New(noc.Mesh, 16)
	delta.WireDelta = -0.25 * delta.OneWayLatency()
	express := noc.New(noc.NOCOut, 16)
	express.Concentration = 2
	express.ExpressLinks = true
	perturbed := w
	perturbed.APKI *= 1.5
	nets := []noc.Config{
		{}, // zero: simulator defaults to crossbar
		noc.New(noc.Ideal, 16),
		noc.New(noc.Crossbar, 16),
		noc.New(noc.Mesh, 16),
		noc.New(noc.FlattenedButterfly, 16),
		noc.New(noc.NOCOut, 16),
		noc.New(noc.NOCOut, 16).WithLinkBits(64),
		noc.New(noc.Mesh, 16).WithLinkBits(256),
		delta,
		express,
	}
	for i, net := range nets {
		cfg := sim.Config{
			Workload: w, CoreType: tech.OoO, Cores: 16, LLCMB: 4, Net: net,
			WarmupCycles: 500, MeasureCycles: 1000,
		}
		wc, err := cfg.Wire()
		if err != nil {
			t.Fatalf("net[%d] %v: Wire: %v", i, net.Kind, err)
		}
		p, err := WirePoint(wc)
		if err != nil {
			t.Fatalf("net[%d]: WirePoint: %v", i, err)
		}
		dec, err := p.config()
		if _, ok := dec.(sim.Config); err != nil || !ok {
			t.Fatalf("net[%d]: round-trip resolve: %T, err %v", i, dec, err)
		}
		if dec.(sim.Config).Key() != cfg.Key() {
			t.Fatalf("net[%d]: round-trip key mismatch:\n got %s\nwant %s", i, dec.(sim.Config).Key(), cfg.Key())
		}
	}

	// A perturbed, non-suite workload rides the wire too.
	mod := sim.Config{Workload: perturbed, CoreType: tech.OoO, Cores: 16, LLCMB: 4}
	wc, err := mod.Wire()
	if err != nil {
		t.Fatalf("perturbed Wire: %v", err)
	}
	p, err := WirePoint(wc)
	if err != nil {
		t.Fatalf("perturbed WirePoint: %v", err)
	}
	if dec, err := p.config(); err != nil || dec.(sim.Config).Key() != mod.Key() {
		t.Fatalf("perturbed round-trip failed: %v", err)
	}

	scfg := sim.StructuralConfig{
		Workload: w, CoreType: tech.Conventional, Cores: 8, LLCMB: 2,
		L1MSHRs: 16, Seed: 3,
	}
	swc, err := scfg.Wire()
	if err != nil {
		t.Fatalf("structural Wire: %v", err)
	}
	sp, err := WirePoint(swc)
	if err != nil {
		t.Fatalf("structural WirePoint: %v", err)
	}
	dec, err := sp.config()
	if _, ok := dec.(sim.StructuralConfig); err != nil || !ok {
		t.Fatalf("structural round-trip resolve: %T, err %v", dec, err)
	}
	if dec.(sim.StructuralConfig).Key() != scfg.Key() {
		t.Fatalf("structural round-trip key mismatch:\n got %s\nwant %s",
			dec.(sim.StructuralConfig).Key(), scfg.Key())
	}
}

// TestSweepWireEqualsLegacy: the same point expressed in the wire form
// and the legacy symbolic short form returns byte-identical results
// through a live /v1/sweep.
func TestSweepWireEqualsLegacy(t *testing.T) {
	srv := httptest.NewServer(New(nil))
	t.Cleanup(srv.Close)

	cfg := sim.Config{
		Workload: suiteWorkload(t, workload.Names()[0]), CoreType: tech.OoO,
		Cores: 8, LLCMB: 2, WarmupCycles: 500, MeasureCycles: 1000,
	}
	wc, err := cfg.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	wirePt, err := WirePoint(wc)
	if err != nil {
		t.Fatalf("WirePoint: %v", err)
	}
	legacyPt := SweepPoint{
		Workload: cfg.Workload.Name, Core: "ooo", Cores: 8, LLCMB: 2,
		WarmupCycles: 500, MeasureCycles: 1000,
	}

	var bodies [2]string
	for i, pt := range []SweepPoint{wirePt, legacyPt} {
		status, body := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{pt}})
		if status != http.StatusOK {
			t.Fatalf("form %d: status %d: %s", i, status, body)
		}
		bodies[i] = body
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("wire and legacy responses differ:\nwire:   %s\nlegacy: %s", bodies[0], bodies[1])
	}
	var sr SweepResponse
	if err := json.Unmarshal([]byte(bodies[0]), &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := sim.Run(cfg)
	if err != nil || sr.Results[0].Sim == nil || !reflect.DeepEqual(*sr.Results[0].Sim, want) {
		t.Fatalf("sweep result differs from direct Run: %v", err)
	}
}

// TestSweepWireVersionMismatch: an unknown wire_version draws the
// structured 400 with the offending and supported versions — the body
// a coordinator keys on to classify the reject as permanent.
func TestSweepWireVersionMismatch(t *testing.T) {
	srv := httptest.NewServer(New(nil))
	t.Cleanup(srv.Close)

	status, body := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{
		{Config: json.RawMessage(`{"wire_version": 99, "field_from_the_future": true}`)},
	}})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, body)
	}
	var ver WireVersionErrorResponse
	if err := json.Unmarshal([]byte(body), &ver); err != nil {
		t.Fatalf("400 body is not the structured version error: %v\n%s", err, body)
	}
	if ver.WireVersion != 99 || ver.Supported != sim.WireVersion || ver.Error == "" {
		t.Fatalf("version error = %+v, want wire_version 99 and supported %d", ver, sim.WireVersion)
	}
}

// TestSweepWireRejectsMixedForms: a point carrying both the "config"
// wire object and symbolic short-form fields is ambiguous and refused.
func TestSweepWireRejectsMixedForms(t *testing.T) {
	cfg := sim.Config{
		Workload: suiteWorkload(t, workload.Names()[0]), CoreType: tech.OoO,
		Cores: 8, LLCMB: 2,
	}
	wc, err := cfg.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	p, err := WirePoint(wc)
	if err != nil {
		t.Fatalf("WirePoint: %v", err)
	}
	p.Workload = cfg.Workload.Name // reintroduce a symbolic field
	if _, err := p.config(); err == nil {
		t.Fatal("config() accepted a point mixing wire and symbolic forms")
	}

	// And over HTTP, it is a plain 400, not a version error.
	srv := httptest.NewServer(New(nil))
	t.Cleanup(srv.Close)
	status, body := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{p}})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, body)
	}
}

// TestSweepWireRejectsInvalidConfig: decode validates wire configs with
// the same rules that gate locally constructed points.
func TestSweepWireRejectsInvalidConfig(t *testing.T) {
	srv := httptest.NewServer(New(nil))
	t.Cleanup(srv.Close)

	cfg := sim.Config{
		Workload: suiteWorkload(t, workload.Names()[0]), CoreType: tech.OoO,
		Cores: 4, LLCMB: 2,
	}
	wc, err := cfg.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	wc.Workload.Alpha = 17 // outside Validate's range
	raw, _ := json.Marshal(wc)
	status, body := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{{Config: raw}}})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for an invalid wire workload: %s", status, body)
	}
}

// TestSweepWireErrorsPerPoint: a request the one-pass decode refuses
// is answered from the point-by-point re-read, so a bad config beside
// a good one gets the error naming its point — and a config from
// another wire version gets the structured version error even when its
// unknown fields fail the in-line decode first. A JSON null config is
// an absent one: beside complete symbolic fields it is served as the
// symbolic point.
func TestSweepWireErrorsPerPoint(t *testing.T) {
	srv := httptest.NewServer(New(nil))
	t.Cleanup(srv.Close)
	good, err := sim.Config{Workload: suiteWorkload(t, workload.Names()[0]), CoreType: tech.OoO,
		Cores: 4, LLCMB: 2, WarmupCycles: 300, MeasureCycles: 300}.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		config, workload, want string
	}{
		{`{"wire_version": 1, "field_from_the_future": true}`, "", "field_from_the_future"},
		{`{}`, "", "missing wire_version"},
		{string(good), workload.Names()[0], "cannot be combined"},
		{`{"wire_version": 1, "kind": "sim", "core": "quantum"}`, "", "quantum"},
	} {
		status, body := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{
			{Config: good}, {Config: json.RawMessage(tc.config), Workload: tc.workload},
		}})
		if status != http.StatusBadRequest || !strings.Contains(body, "point 1: ") || !strings.Contains(body, tc.want) {
			t.Errorf("config %s: status %d body %q, want a point-1 400 naming %q", tc.config, status, body, tc.want)
		}
	}

	status, body := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{
		{Config: good}, {Config: json.RawMessage(`{"wire_version": 99, "field_from_the_future": true}`)},
	}})
	var ver WireVersionErrorResponse
	if err := json.Unmarshal([]byte(body), &ver); status != http.StatusBadRequest || err != nil ||
		ver.WireVersion != 99 || !strings.Contains(ver.Error, "point 1: ") {
		t.Errorf("future-version config: status %d body %q, want the structured point-1 version 400", status, body)
	}

	sym := cheapPoint("sim", 3)
	_, want := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{sym}})
	sym.Config = json.RawMessage(`null`)
	if status, got := postSweep(t, srv.URL, SweepRequest{Points: []SweepPoint{sym}}); status != http.StatusOK || got != want {
		t.Errorf("null config beside symbolic fields: status %d body %q, want the symbolic point's %q", status, got, want)
	}
}

package serve

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/exp"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/tier"
	"scaleout/internal/workload"
)

func postSweepReq(t *testing.T, s *Server, req SweepRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// An unknown tier name is a 400, not a silent fall back to exact.
func TestSweepUnknownTier(t *testing.T) {
	s := New(exp.New(1))
	w := postSweepReq(t, s, SweepRequest{Tier: "bogus", Points: []SweepPoint{{
		Workload: workload.WebSearch, Core: "ooo", Cores: 2, LLCMB: 1,
	}}})
	if w.Code != 400 {
		t.Fatalf("tier bogus: status %d, want 400", w.Code)
	}
	if !strings.Contains(w.Body.String(), "unknown tier") {
		t.Errorf("tier bogus: body %q", w.Body.String())
	}
}

// The default (exact, uncalibrated) sweep path returns exactly what the
// simulator returns — the evaluator is invisible.
func TestSweepExactMatchesDirect(t *testing.T) {
	s := New(exp.New(1))
	pt := SweepPoint{Workload: workload.WebSearch, Core: "ooo", Cores: 4, LLCMB: 2}
	w := postSweepReq(t, s, SweepRequest{Points: []SweepPoint{pt}})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	cfg, err := pt.config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(cfg.(sim.Config))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Sim == nil || !reflect.DeepEqual(*resp.Results[0].Sim, want) {
		t.Errorf("sweep result %+v != direct %+v", resp.Results[0].Sim, want)
	}
}

// tier:"fast" against a calibrated evaluator serves certified interior
// points from the surrogate, tagged in the wire result; the same
// request without the tier field stays exact.
func TestSweepFastTier(t *testing.T) {
	s := New(exp.New(1))
	s.SetTier(tier.New(&tier.Calibration{
		Granularity: 1,
		Safety:      1,
		Regions: []tier.Region{
			{Key: tier.RegionKey(1, "sim", tech.OoO, 0, 0, 0), Samples: 1, MaxRelErr: 0.05},
		},
	}, tier.Exact))

	pt := SweepPoint{Workload: workload.WebSearch, Core: "ooo", Cores: 4, LLCMB: 2}
	w := postSweepReq(t, s, SweepRequest{Tier: "fast", Points: []SweepPoint{pt}})
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Sim.Source != "surrogate" {
		t.Errorf("fast tier source = %q, want surrogate", resp.Results[0].Sim.Source)
	}

	w = postSweepReq(t, s, SweepRequest{Tier: "exact", Points: []SweepPoint{pt}})
	var exact SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Results[0].Sim.Source != "" {
		t.Errorf("exact tier served a surrogate value: %+v", exact.Results[0].Sim)
	}
}

// /statsz reports the evaluator's per-tier counters.
func TestStatszTierSection(t *testing.T) {
	s := New(exp.New(1))
	postSweepReq(t, s, SweepRequest{Points: []SweepPoint{{
		Workload: workload.WebSearch, Core: "ooo", Cores: 2, LLCMB: 1,
	}}})
	r := httptest.NewRequest("GET", "/statsz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tier.Scored != 1 || st.Tier.Escalated != 1 {
		t.Errorf("tier stats = %+v, want 1 scored, 1 escalated", st.Tier)
	}
}

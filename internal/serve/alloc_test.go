package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// warmSweep16 returns a handler whose engine already holds 16 points —
// statistical and structural, across interconnects — and the wire-form
// /v1/sweep body requesting exactly those points.
func warmSweep16(tb testing.TB) (http.Handler, []byte, *exp.Engine) {
	tb.Helper()
	ws := workload.Suite()
	nets := []noc.Kind{noc.Crossbar, noc.Mesh, noc.NOCOut, noc.FlattenedButterfly}
	var req SweepRequest
	for i := 0; i < 16; i++ {
		w, cores := ws[i%len(ws)], 4<<(i%3)
		net := noc.New(nets[i%len(nets)], cores)
		var (
			data []byte
			err  error
		)
		if i%4 == 3 {
			data, err = sim.StructuralConfig{Workload: w, CoreType: tech.OoO, Cores: cores, LLCMB: 1,
				Net: net, WarmupCycles: 300, MeasureCycles: 300}.MarshalWire()
		} else {
			data, err = sim.Config{Workload: w, CoreType: tech.InOrder, Cores: cores, LLCMB: 2,
				Net: net, WarmupCycles: 300, MeasureCycles: 500}.MarshalWire()
		}
		if err != nil {
			tb.Fatal(err)
		}
		req.Points = append(req.Points, SweepPoint{Config: data})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	eng := exp.New(2)
	h := New(eng).Handler()
	sweep(tb, h, body)
	if st := eng.Stats(); st.Misses != 16 {
		tb.Fatalf("warm-up simulated %d points, want 16", st.Misses)
	}
	return h, body, eng
}

func sweep(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("sweep status %d: %s", rec.Code, rec.Body)
	}
}

// TestSweepWarmAllocCeiling pins the warm /v1/sweep path's allocation
// budget: a 16-point request whose every point is a memo hit must stay
// within 800 allocations (about 50 per point, request and response
// plumbing included), so work that re-derives a point's key or builds
// its route payload per request fails the build.
func TestSweepWarmAllocCeiling(t *testing.T) {
	h, body, eng := warmSweep16(t)
	allocs := testing.AllocsPerRun(20, func() { sweep(t, h, body) })
	if st := eng.Stats(); st.Misses != 16 {
		t.Fatalf("warm sweeps simulated %d new points", st.Misses-16)
	}
	t.Logf("warm 16-point sweep: %.0f allocs", allocs)
	if allocs > 800 {
		t.Fatalf("warm 16-point sweep took %.0f allocs, ceiling 800", allocs)
	}
}

// BenchmarkSweepWarm16 times the in-process warm /v1/sweep handler on
// 16 memo-hit points and reports the cost per point.
func BenchmarkSweepWarm16(b *testing.B) {
	h, body, _ := warmSweep16(b)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sweep(b, h, body)
	}
	b.ReportMetric(float64(time.Since(start).Microseconds())/float64(b.N*16), "us/point")
}

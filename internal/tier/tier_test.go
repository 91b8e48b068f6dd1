package tier

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"scaleout/internal/exp"
	"scaleout/internal/noc"
	"scaleout/internal/sim"
	"scaleout/internal/tech"
	"scaleout/internal/workload"
)

// Table-driven boundary cases for the escalation decisions: a point
// exactly on the boundary escalates even with a zero-width band, an
// infinite band always escalates, and the all-/none-escalate extremes
// come out right.
func TestThresholdBoundaries(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		d      Threshold
		scores []float64
		bands  []float64
		want   []bool
	}{
		{"exactly on threshold, band 0", Threshold{Value: 10}, []float64{10}, []float64{0}, []bool{true}},
		{"inside band", Threshold{Value: 10}, []float64{10.5, 9.5}, []float64{1, 0.4}, []bool{true, false}},
		{"all interior", Threshold{Value: 100}, []float64{1, 2, 3}, []float64{0.1, 0.1, 0.1}, []bool{false, false, false}},
		{"infinite band", Threshold{Value: 100}, []float64{1}, []float64{inf}, []bool{true}},
	}
	for _, c := range cases {
		if got := c.d.Escalate(c.scores, c.bands); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTopKBoundaries(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		d      TopK
		scores []float64
		bands  []float64
		want   []bool
	}{
		{"k=0 none escalate", TopK{K: 0}, []float64{1, 2}, []float64{inf, inf}, []bool{false, false}},
		{"k>=n none escalate", TopK{K: 5}, []float64{1, 2}, []float64{inf, inf}, []bool{false, false}},
		{"band 0, clear ranks", TopK{K: 1}, []float64{1, 2, 3}, []float64{0, 0, 0}, []bool{false, false, false}},
		{"band 0, tie at the rank edge", TopK{K: 1}, []float64{3, 3, 1}, []float64{0, 0, 0}, []bool{true, true, false}},
		{"band reaches the edge", TopK{K: 1}, []float64{10, 9, 1}, []float64{0.6, 0.6, 0.1}, []bool{true, true, false}},
		// The uncertified middle point and the leader escalate; the last
		// point is certainly out (the leader beats it outright) no
		// matter where the uncertified point's true value lies.
		{"uncertified point escalates", TopK{K: 1}, []float64{10, 5, 1}, []float64{0, inf, 0}, []bool{true, true, false}},
	}
	for _, c := range cases {
		if got := c.d.Escalate(c.scores, c.bands); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCrossoverBoundaries(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		d      Crossover
		scores []float64
		bands  []float64
		want   []bool
	}{
		{"exactly on crossover, band 0", Crossover{Against: []float64{5}}, []float64{5}, []float64{0}, []bool{true}},
		{"intervals apart", Crossover{Against: []float64{5}}, []float64{7}, []float64{1}, []bool{false}},
		{"intervals touch", Crossover{Against: []float64{5}, AgainstBands: []float64{1}}, []float64{7}, []float64{1}, []bool{true}},
		// Point 1 has no opposing point, so a crossing cannot be ruled
		// out; point 0's interval stays clear of its opposing score.
		{"missing opposing point", Crossover{Against: []float64{5}}, []float64{4, 9}, []float64{0.5, 0.5}, []bool{false, true}},
		{"infinite band", Crossover{Against: []float64{5}}, []float64{100}, []float64{inf}, []bool{true}},
	}
	for _, c := range cases {
		if got := c.d.Escalate(c.scores, c.bands); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// band: unknown, empty, and uncertifiable regions are infinite;
// certified regions scale max error by safety and score magnitude.
func TestBand(t *testing.T) {
	ev := New(&Calibration{
		Granularity: 1,
		Safety:      2,
		Regions: []Region{
			{Key: "certified", Samples: 4, MaxRelErr: 0.1},
			{Key: "empty", Samples: 0, MaxRelErr: 0},
			{Key: "wild", Samples: 4, MaxRelErr: maxCertifiableRelErr * 2},
		},
	}, Exact)
	if got := ev.band("certified", 10); got != 0.1*2*10 {
		t.Errorf("certified band = %v, want 2", got)
	}
	if got := ev.band("unknown", 10); !math.IsInf(got, 1) {
		t.Errorf("unknown region band = %v, want +Inf", got)
	}
	if got := ev.band("empty", 10); !math.IsInf(got, 1) {
		t.Errorf("zero-sample region band = %v, want +Inf", got)
	}
	if got := ev.band("wild", 10); !math.IsInf(got, 1) {
		t.Errorf("uncertifiable region band = %v, want +Inf", got)
	}
}

func TestRegionKeyGranularity(t *testing.T) {
	if got := RegionKey(1, "sim", tech.OoO, noc.Crossbar, 16, 4); got != "sim/OoO" {
		t.Errorf("granularity 1: %q", got)
	}
	if got := RegionKey(2, "sim", tech.OoO, noc.Mesh, 16, 4); got != "sim/OoO/Mesh" {
		t.Errorf("granularity 2: %q", got)
	}
	want := "structural/OoO/Crossbar/c9-16/llc<=4"
	if got := RegionKey(3, "structural", tech.OoO, noc.Crossbar, 16, 4); got != want {
		t.Errorf("granularity 3: %q, want %q", got, want)
	}
}

func TestParseMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		mode Mode
		ok   bool
	}{{"", Exact, true}, {"exact", Exact, true}, {"fast", Fast, true}, {"bogus", Exact, false}} {
		m, ok := ParseMode(c.in)
		if m != c.mode || ok != c.ok {
			t.Errorf("ParseMode(%q) = (%v, %v), want (%v, %v)", c.in, m, ok, c.mode, c.ok)
		}
	}
}

// An uncalibrated exact evaluator returns exactly what the simulators
// return: every point escalates, nothing is approximated.
func TestExactUncalibratedMatchesDirect(t *testing.T) {
	ws := workload.Suite()
	ev := New(nil, Exact)
	ctx := exp.WithEngine(context.Background(), exp.New(1))

	simCfgs := []sim.Config{
		{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		{Workload: ws[1], CoreType: tech.OoO, Cores: 8, LLCMB: 2, Net: noc.New(noc.Mesh, 8)},
	}
	got, err := ev.Sims(ctx, simCfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range simCfgs {
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("sim point %d: tiered %+v != direct %+v", i, got[i], want)
		}
	}

	structCfgs := []sim.StructuralConfig{
		{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4},
		{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}, // duplicate
	}
	sgot, err := ev.Structurals(ctx, structCfgs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunStructural(structCfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range structCfgs {
		if !reflect.DeepEqual(sgot[i], want) {
			t.Errorf("structural point %d: tiered %+v != direct %+v", i, sgot[i], want)
		}
	}
	st := ev.Stats()
	if st.Scored != 4 || st.Escalated != 4 || st.SurrogateServed != 0 || st.AnchorHits != 0 {
		t.Errorf("uncalibrated exact stats = %+v, want 4 scored, 4 escalated", st)
	}
}

// Fast mode serves certified interior points from the surrogate, tagged
// Source="surrogate"; with a certified region and no decision boundary,
// nothing simulates.
func TestFastServesSurrogate(t *testing.T) {
	cal := &Calibration{
		Granularity: 1,
		Safety:      1,
		Regions: []Region{
			{Key: "sim/OoO", Samples: 1, MaxRelErr: 0.05},
			{Key: "structural/OoO", Samples: 1, MaxRelErr: 0.05},
		},
	}
	ev := New(cal, Fast)
	ctx := exp.WithEngine(context.Background(), exp.New(1))
	ws := workload.Suite()

	got, err := ev.Sims(ctx, []sim.Config{{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Source != "surrogate" {
		t.Errorf("fast interior sim point Source = %q, want surrogate", got[0].Source)
	}
	if got[0].AppIPC <= 0 {
		t.Errorf("surrogate sim AppIPC = %v", got[0].AppIPC)
	}

	sgot, err := ev.Structurals(ctx, []sim.StructuralConfig{{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sgot[0].Source != "surrogate" || sgot[0].L1IMPKI <= 0 {
		t.Errorf("fast interior structural point = %+v, want surrogate-tagged prediction", sgot[0])
	}
	if st := ev.Stats(); st.SurrogateServed != 2 || st.Escalated != 0 {
		t.Errorf("fast stats = %+v, want 2 surrogate-served, 0 escalated", st)
	}
}

// A decision boundary forces fast mode to simulate the points whose
// band reaches it: with a Threshold pinned to the surrogate's own
// score, the point escalates and returns the genuine simulator result.
func TestFastEscalatesOnBoundary(t *testing.T) {
	cal := &Calibration{
		Granularity: 1,
		Safety:      1,
		Regions:     []Region{{Key: "sim/OoO", Samples: 1, MaxRelErr: 0.05}},
	}
	ev := New(cal, Fast)
	ctx := exp.WithEngine(context.Background(), exp.New(1))
	ws := workload.Suite()
	cfgs := []sim.Config{{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}}

	// First learn the surrogate score via a far-away threshold, then pin
	// the threshold to it.
	score, _, err := ev.SimsDecided(ctx, cfgs, Threshold{Value: -1e9})
	if err != nil {
		t.Fatal(err)
	}
	if score[0].Source != "surrogate" {
		t.Fatalf("far threshold still escalated: %+v", score[0])
	}
	got, escalated, err := ev.SimsDecided(ctx, cfgs, Threshold{Value: score[0].AppIPC})
	if err != nil {
		t.Fatal(err)
	}
	if !escalated[0] {
		t.Fatal("point on the decision boundary did not escalate")
	}
	want, err := sim.Run(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("escalated point %+v != direct %+v", got[0], want)
	}
}

// Mode plumbing: a context override beats the evaluator's default.
func TestModeOverride(t *testing.T) {
	cal := &Calibration{
		Granularity: 1,
		Safety:      1,
		Regions:     []Region{{Key: "sim/OoO", Samples: 1, MaxRelErr: 0.05}},
	}
	ev := New(cal, Exact)
	ctx := exp.WithEngine(context.Background(), exp.New(1))
	ws := workload.Suite()
	cfgs := []sim.Config{{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}}

	got, err := ev.Sims(WithMode(ctx, Fast), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Source != "surrogate" {
		t.Errorf("fast override ignored: Source = %q", got[0].Source)
	}
	got, err = ev.Sims(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Source != "" {
		t.Errorf("exact default served a surrogate value")
	}
}

// Anchors survive a Save/Load round trip bit-exactly: Go's float64 JSON
// encoding is the shortest form that re-parses to the same value, which
// is what makes anchor-served figures byte-identical.
func TestCalibrationRoundTrip(t *testing.T) {
	ws := workload.Suite()
	cfg := sim.Config{Workload: ws[0], CoreType: tech.OoO, Cores: 16, LLCMB: 4}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := &Calibration{
		Regions:    []Region{{Key: "sim/OoO", Samples: 3, MaxRelErr: 0.1 + 0.2, MeanRelErr: math.Pi / 17}},
		SimAnchors: []SimAnchor{{Key: cfg.Key(), Result: res}},
	}
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := cal.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.SimAnchors, cal.SimAnchors) {
		t.Errorf("anchors changed across round trip:\n%+v\n%+v", loaded.SimAnchors, cal.SimAnchors)
	}
	if !reflect.DeepEqual(loaded.Regions, cal.Regions) {
		t.Errorf("regions changed across round trip:\n%+v\n%+v", loaded.Regions, cal.Regions)
	}

	// And the evaluator serves the loaded anchor verbatim.
	ev := New(loaded, Exact)
	ctx := exp.WithEngine(context.Background(), exp.New(1))
	got, err := ev.Sims(ctx, []sim.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], res) {
		t.Errorf("anchor-served result %+v != original %+v", got[0], res)
	}
	if st := ev.Stats(); st.AnchorHits != 1 {
		t.Errorf("anchor hit not counted: %+v", st)
	}
}

// A calibration whose anchors were keyed under an earlier identity
// scheme is refused with a pointer to the fix, instead of loading
// anchors no point could ever match.
func TestLoadRejectsStaleAnchorKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cal.json")
	stale := &Calibration{StructuralAnchors: []StructuralAnchor{{Key: "structural:sim.StructuralConfig{Cores:16}"}}}
	if err := stale.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "rerun cmd/calibrate") {
		t.Fatalf("Load(stale anchors) = %v, want an error naming cmd/calibrate", err)
	}
}

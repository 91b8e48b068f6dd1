package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"scaleout/internal/admit"
	"scaleout/internal/cluster"
	"scaleout/internal/exp"
	"scaleout/internal/metrics"
	"scaleout/internal/serve"
	"scaleout/internal/store"
)

// metricNamePattern is the repo's naming contract:
// soproc_<subsystem>_<name>, lower-snake.
var metricNamePattern = regexp.MustCompile(`^soproc_(engine|tier|server|store|cluster|admit)_[a-z0-9_]+$`)

// TestMetricsContract holds a fully wired server's /metricsz to its
// contracts: the page is served at all — the walk of the /statsz
// snapshot refuses any numeric or bool leaf without a metric tag, so a
// 200 means every leaf declared its twin or its reason for having
// none — it parses as strict Prometheus text, and every family obeys
// the naming rules. A field /statsz omits when zero is still on the
// page.
func TestMetricsContract(t *testing.T) {
	ts, _ := wiredServer(t, "127.0.0.1:1", "127.0.0.1:2")

	mres, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatalf("GET /metricsz: %v", err)
	}
	mres.Body.Close()
	if ct := mres.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	page := scrape(t, ts, "/metricsz")
	fams, err := metrics.ParseText(page)
	if err != nil {
		t.Fatalf("ParseText(/metricsz): %v\npage:\n%s", err, page)
	}

	for name, fam := range fams {
		if !metricNamePattern.MatchString(name) {
			t.Errorf("family %q violates soproc_<subsystem>_<name> naming", name)
		}
		if fam.Kind == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %q must end in _total", name)
		}
		if strings.TrimSpace(fam.Help) == "" {
			t.Errorf("family %q has no HELP text", name)
		}
	}
	for _, name := range []string{"soproc_engine_store_hits_total", "soproc_store_save_errors_total"} {
		if v, ok := fams[name].Value(); !ok || v != 0 {
			t.Errorf("%s = %v (present %v), want an explicit 0", name, v, ok)
		}
	}
}

// wiredStatsz is a fully wired server's /statsz body with its
// optional sections decoded into their snapshot types (the outer
// fields shadow StatsResponse's untyped ones).
type wiredStatsz struct {
	serve.StatsResponse
	Store   store.Stats   `json:"store"`
	Cluster cluster.Stats `json:"cluster"`
	Admit   admit.Stats   `json:"admit"`
}

// TestMetricsTwinValuesAgree drives traffic through a fully wired
// server — a coordinator routing across one live replica and one dead
// one, behind admission, with a store — lets it go quiet, and checks
// that every /metricsz sample equals its /statsz value on the same
// state: bools as 0/1, per-replica and per-lane samples matched by
// label. Only uptime, which moves between the two requests, is
// excluded.
func TestMetricsTwinValuesAgree(t *testing.T) {
	replica := httptest.NewServer(serve.New(exp.New(1)).Handler())
	defer replica.Close()
	live, dead := replica.Listener.Addr().String(), "127.0.0.1:1"
	ts, eng := wiredServer(t, live, dead)

	// Sixteen distinct points: each replica owns some of them unless a
	// 1-in-65536 hash split says otherwise (the live replica's port
	// changes per run). The second pass is all memo hits.
	var pts []string
	for mb := 1; mb <= 16; mb++ {
		pts = append(pts, fmt.Sprintf(`{"workload":"Web Search","core":"ooo","cores":2,"llc_mb":%d}`, mb))
	}
	body := `{"points":[` + strings.Join(pts, ",") + `]}`
	for i := 0; i < 2; i++ {
		res, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/sweep: %v", err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("POST /v1/sweep: status %d", res.StatusCode)
		}
	}
	if es := eng.Stats(); es.Misses+es.Remote == 0 || es.Hits == 0 {
		t.Fatalf("traffic did not exercise both memo paths: %+v", es)
	}

	// A client can read its response before the admission middleware
	// releases the request's slot; wait for the release.
	var doc wiredStatsz
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		doc = wiredStatsz{}
		if err := json.Unmarshal([]byte(scrape(t, ts, "/statsz")), &doc); err != nil {
			t.Fatalf("decode /statsz: %v", err)
		}
		if doc.Admit.InFlight == 0 || time.Now().After(deadline) {
			break
		}
	}
	got, err := metrics.ParseText(scrape(t, ts, "/metricsz"))
	if err != nil {
		t.Fatal(err)
	}

	// The walk of the decoded /statsz body names every family and
	// sample the live page must carry, with /statsz's values.
	snap := doc.StatsResponse
	snap.Store, snap.Cluster, snap.Admit = doc.Store, doc.Cluster, doc.Admit
	page, err := metrics.NewRegistry().Text(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metrics.ParseText(page)
	if err != nil {
		t.Fatal(err)
	}
	for name, wf := range want {
		gf := got[name]
		if gf == nil {
			t.Errorf("%s is on /statsz but not /metricsz", name)
			continue
		}
		if gf.Kind != wf.Kind || len(gf.Samples) != len(wf.Samples) {
			t.Errorf("%s: /metricsz has %s with %d samples, /statsz walks to %s with %d",
				name, gf.Kind, len(gf.Samples), wf.Kind, len(wf.Samples))
			continue
		}
		if name == "soproc_server_uptime_seconds" {
			continue
		}
		for _, ws := range wf.Samples {
			if gs, ok := gf.Sample(ws.Labels); !ok || gs.Value != ws.Value {
				t.Errorf("%s%v = %v (present %v), /statsz says %v", name, ws.Labels, gs.Value, ok, ws.Value)
			}
		}
	}
	for name := range got {
		if want[name] == nil && name != "soproc_engine_point_latency_seconds" {
			t.Errorf("%s is on /metricsz but has no /statsz field", name)
		}
	}

	// The comparison above covered labeled and bool samples for real:
	// the dead replica is down, the live one answered, and the lanes
	// add up to a nonzero admission total.
	if s, _ := got["soproc_cluster_replica_down"].Sample(map[string]string{"replica": dead}); s.Value != 1 {
		t.Errorf("dead replica %s: soproc_cluster_replica_down = %v, want 1", dead, s.Value)
	}
	if s, _ := got["soproc_cluster_replica_sent_points_total"].Sample(map[string]string{"replica": live}); s.Value == 0 {
		t.Errorf("live replica %s answered no points", live)
	}
	var lanes float64
	for _, s := range got["soproc_admit_lane_admitted_total"].Samples {
		lanes += s.Value
	}
	if total, _ := got["soproc_admit_admitted_total"].Value(); lanes != total || total == 0 {
		t.Errorf("lanes admitted %v, total %v; want equal and nonzero", lanes, total)
	}
}

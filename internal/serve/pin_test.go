package serve_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
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

// wiredServer builds one server with every observable subsystem wired
// the way soprocd wires them — engine with a store, the tiered
// evaluator, a cluster coordinator routing the engine across peers, an
// admission controller in front, and decision tracing on — and serves
// it. The coordinator never probes and keeps a failed replica down for
// an hour, so a server with no requests in flight is quiescent: two
// scrapes in a row read the same numbers.
func wiredServer(t *testing.T, peers ...string) (*httptest.Server, *exp.Engine) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	eng := exp.NewBounded(2, 64)
	eng.SetStore(st)
	srv := serve.New(eng)
	srv.EnableObservability(serve.ObservabilityOptions{TraceDecisions: true})
	srv.SetStoreStats(func() any { return st.Stats() })
	coord, err := cluster.New(peers,
		cluster.WithProbeInterval(0), cluster.WithRetries(0), cluster.WithCooldown(time.Hour))
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	eng.SetRoute(coord.Route)
	srv.SetClusterStats(func() any { return coord.Stats() })
	ctrl := admit.New(admit.Options{MaxInFlight: 4})
	srv.SetAdmitStats(func() any { return ctrl.Stats() })

	ts := httptest.NewServer(ctrl.Middleware(srv.Handler()))
	t.Cleanup(ts.Close)
	return ts, eng
}

// scrape GETs path from ts and returns the body.
func scrape(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	res, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 {
		t.Fatalf("GET %s: status %d: %s", path, res.StatusCode, body)
	}
	return string(body)
}

// metricsDeclarations reduces a /metricsz page to what a dashboard
// depends on: every family's # HELP and # TYPE line, plus a
// "# LABELS <family> <names>" line naming the labels its samples carry.
// Values are left out, so the result is stable across scrapes.
func metricsDeclarations(t *testing.T, page string) string {
	t.Helper()
	fams, err := metrics.ParseText(page)
	if err != nil {
		t.Fatalf("ParseText(/metricsz): %v", err)
	}
	var b strings.Builder
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") && !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		b.WriteString(line + "\n")
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		seen := map[string]bool{}
		var labels []string
		for _, s := range fams[name].Samples {
			for l := range s.Labels {
				if !seen[l] {
					seen[l] = true
					labels = append(labels, l)
				}
			}
		}
		if len(labels) > 0 {
			sort.Strings(labels)
			b.WriteString("# LABELS " + name + " " + strings.Join(labels, ",") + "\n")
		}
	}
	return b.String()
}

// statszLeaves lists every leaf of a /statsz body as a dotted path,
// one per line, sorted. Array elements are numbered and map keys kept.
func statszLeaves(t *testing.T, body string) string {
	t.Helper()
	var doc any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode /statsz: %v", err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				walk(prefix+"."+k, child)
			}
		case []any:
			for i, child := range x {
				walk(prefix+"."+strconv.Itoa(i), child)
			}
		default:
			paths = append(paths, strings.TrimPrefix(prefix, "."))
		}
	}
	walk("", doc)
	sort.Strings(paths)
	return strings.Join(paths, "\n") + "\n"
}

// TestObservabilityPins holds the fully wired server's observable
// surface to committed files: every /metricsz family declaration
// (testdata/metricsz_families.txt) and every /statsz leaf path
// (testdata/statsz_leaves.txt). A rename, a dropped family, a changed
// HELP text or type, or a moved /statsz field fails here; a deliberate
// change rewrites the file in the same commit.
func TestObservabilityPins(t *testing.T) {
	ts, _ := wiredServer(t, "127.0.0.1:1", "127.0.0.1:2")
	for file, got := range map[string]string{
		"metricsz_families.txt": metricsDeclarations(t, scrape(t, ts, "/metricsz")),
		"statsz_leaves.txt":     statszLeaves(t, scrape(t, ts, "/statsz")),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("testdata/%s is stale; the server now declares:\n%s", file, got)
		}
	}
}

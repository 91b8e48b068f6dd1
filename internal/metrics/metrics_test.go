package metrics

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testPeer and testSnap exercise every walk rule: a labeled slice, a
// labeled map, a bool, an omitempty field, a nested struct, and a
// field marked as having no twin.
type testPeer struct {
	Addr string `json:"addr" label:"replica"`
	Sent int64  `json:"sent" metric:"soproc_test_replica_sent_total" help:"sent per replica"`
	Down bool   `json:"down" metric:"soproc_test_replica_down" help:"1 while down"`
}

type testLane struct {
	Admitted int64 `json:"admitted" metric:"soproc_test_lane_admitted_total" help:"per-lane admits"`
}

type testInner struct {
	InFlight int `json:"in_flight" metric:"soproc_test_in_flight_points" help:"points in flight"`
}

type testSnap struct {
	Points int64               `json:"points,omitempty" metric:"soproc_test_points_total" help:"points handled"`
	Rate   float64             `json:"rate" metric:"-" help:"derived ratio"`
	Inner  testInner           `json:"inner"`
	Peers  []testPeer          `json:"peers"`
	Lanes  map[string]testLane `json:"lanes" label:"lane"`
}

// TestTextRendering locks the exposition format down: HELP/TYPE
// comments, sorted families, label escaping, the kind taken from the
// name, bools as 0/1, map entries in key order, and omitempty zeros.
func TestTextRendering(t *testing.T) {
	snap := testSnap{
		Inner: testInner{InFlight: 1},
		Peers: []testPeer{{Addr: "10.0.0.2:8080", Sent: 4, Down: true}, {Addr: "10.0.0.1:8080"}},
		Lanes: map[string]testLane{"interactive": {5}, `we"ird\lane`: {7}, "bulk": {2}},
	}
	text, err := NewRegistry().Text(&snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP soproc_test_points_total points handled\n",
		"# TYPE soproc_test_points_total counter\n",
		"soproc_test_points_total 0\n",
		"# TYPE soproc_test_in_flight_points gauge\n",
		"soproc_test_in_flight_points 1\n",
		`soproc_test_replica_sent_total{replica="10.0.0.2:8080"} 4` + "\n" +
			`soproc_test_replica_sent_total{replica="10.0.0.1:8080"} 0` + "\n",
		`soproc_test_replica_down{replica="10.0.0.2:8080"} 1` + "\n",
		`soproc_test_replica_down{replica="10.0.0.1:8080"} 0` + "\n",
		`soproc_test_lane_admitted_total{lane="bulk"} 2` + "\n" +
			`soproc_test_lane_admitted_total{lane="interactive"} 5` + "\n" +
			`soproc_test_lane_admitted_total{lane="we\"ird\\lane"} 7` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendering missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "rate") {
		t.Errorf("a metric:\"-\" field was rendered:\n%s", text)
	}
	// Families must render sorted by name.
	if strings.Index(text, "soproc_test_in_flight_points") > strings.Index(text, "soproc_test_points_total") {
		t.Errorf("families not sorted by name:\n%s", text)
	}
}

// TestWalkRejectsUndeclared holds the walk to its one-declaration
// rule: a number the snapshot carries without a metric twin, without
// help text, or without labels to tell its series apart is an error,
// never a silently missing or colliding family.
func TestWalkRejectsUndeclared(t *testing.T) {
	type untagged struct {
		Hits int64 `json:"hits"`
	}
	type noHelp struct {
		Hits int64 `metric:"soproc_test_hits_total"`
	}
	type badName struct {
		Hits int64 `metric:"soproc-hits" help:"hits"`
	}
	type histogram struct {
		Hist int64 `metric:"soproc_test_latency_seconds" help:"clash"`
	}
	for _, snap := range []any{
		untagged{}, &struct{ Inner untagged }{}, struct{ X any }{X: untagged{}},
		noHelp{}, badName{}, histogram{}, struct{ A, B testInner }{},
		struct{ Lanes map[string]testLane }{},
		struct{ Lanes []testLane }{Lanes: make([]testLane, 2)},
	} {
		reg := NewRegistry()
		reg.Histogram("soproc_test_latency_seconds", "latency", []float64{1})
		if text, err := reg.Text(snap); err == nil {
			t.Errorf("Text(%T) accepted an undeclared leaf:\n%s", snap, text)
		}
	}
}

// TestHistogram checks cumulative bucket expansion and sum/count.
func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("soproc_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	text, err := reg.Text(nil)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	fam := fams["soproc_test_latency_seconds"]
	if fam == nil || fam.Kind != KindHistogram {
		t.Fatalf("histogram family missing or mistyped: %+v", fam)
	}
	wantBuckets := map[string]float64{"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}
	for le, want := range wantBuckets {
		s, ok := fam.Sample(map[string]string{"le": le})
		if !ok || s.Value != want {
			t.Errorf("bucket le=%s: got %+v ok=%v, want %v", le, s, ok, want)
		}
	}
	var sum, count float64
	for _, s := range fam.Samples {
		switch s.Name {
		case "soproc_test_latency_seconds_sum":
			sum = s.Value
		case "soproc_test_latency_seconds_count":
			count = s.Value
		}
	}
	if count != 4 || math.Abs(sum-5.555) > 1e-9 {
		t.Errorf("sum=%v count=%v, want 5.555 and 4", sum, count)
	}
}

// TestParseRoundTrip renders a registry and re-parses it: every family
// must come back with its kind, help, and values intact.
func TestParseRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("soproc_test_latency_seconds", "latency", []float64{1}).Observe(0.5)
	text, err := reg.Text(testSnap{Points: 42, Peers: []testPeer{{Addr: "10.0.0.1:8080", Down: true}}})
	if err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if v, ok := fams["soproc_test_points_total"].Value(); !ok || v != 42 {
		t.Errorf("points counter: got %v ok=%v", v, ok)
	}
	if fams["soproc_test_points_total"].Help != "points handled" {
		t.Errorf("help lost: %+v", fams["soproc_test_points_total"])
	}
	s, ok := fams["soproc_test_replica_down"].Sample(map[string]string{"replica": "10.0.0.1:8080"})
	if !ok || s.Value != 1 {
		t.Errorf("replica gauge: got %+v ok=%v", s, ok)
	}
	if fams["soproc_test_latency_seconds"].Kind != KindHistogram {
		t.Errorf("histogram lost its kind: %+v", fams["soproc_test_latency_seconds"])
	}
}

// TestParseRejectsMalformed verifies the parser is strict about the
// properties the CI lint relies on.
func TestParseRejectsMalformed(t *testing.T) {
	for _, page := range []string{
		"soproc_orphan_total 3\n",                                        // sample without TYPE
		"# TYPE soproc_x_total counter\nsoproc_x_total x\n",              // non-numeric value
		"# TYPE soproc_x_total widget\n",                                 // unknown kind
		"# TYPE soproc_x_total counter\n# TYPE soproc_x_total counter\n", // duplicate
	} {
		if _, err := ParseText(page); err == nil {
			t.Errorf("ParseText accepted malformed page %q", page)
		}
	}
}

// TestHandler serves a scrape over HTTP with the 0.0.4 content type.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	calls := 0
	srv := httptest.NewServer(reg.Handler(func() any {
		calls++
		return testSnap{Points: 1}
	}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "soproc_test_points_total 1") {
		t.Errorf("scrape body missing counter: %s", buf[:n])
	}
	if calls != 1 {
		t.Errorf("one scrape took %d snapshots, want 1", calls)
	}
}

// TestDuplicateRegistrationPanics locks in fail-fast registration.
func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("soproc_test_latency_seconds", "latency", []float64{1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	reg.Histogram("soproc_test_latency_seconds", "again", []float64{1})
}

// TestDecisionLogRing checks wraparound, ordering, and Seq continuity.
func TestDecisionLogRing(t *testing.T) {
	l := NewDecisionLog(4)
	for i := 0; i < 10; i++ {
		l.Add(Decision{Key: fmt.Sprintf("k%d", i), Source: "memo"})
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d, want 10", l.Total())
	}
	last := l.Last(0)
	if len(last) != 4 {
		t.Fatalf("Last(0) returned %d records, want 4", len(last))
	}
	for i, d := range last {
		wantKey := fmt.Sprintf("k%d", 6+i)
		if d.Key != wantKey || d.Seq != uint64(7+i) {
			t.Errorf("record %d = %+v, want key %s seq %d", i, d, wantKey, 7+i)
		}
	}
	if two := l.Last(2); len(two) != 2 || two[1].Key != "k9" {
		t.Errorf("Last(2) = %+v", two)
	}
}

// TestDecisionLogConcurrent hammers the ring from many goroutines
// while a reader snapshots it — run under -race this is the ring's
// safety proof.
func TestDecisionLogConcurrent(t *testing.T) {
	l := NewDecisionLog(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(Decision{Key: KeyFingerprint(fmt.Sprintf("w%d-%d", w, i)), Source: "simulated"})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			l.Last(16)
		}
	}()
	wg.Wait()
	<-done
	if l.Total() != 8*500 {
		t.Fatalf("Total = %d, want %d", l.Total(), 8*500)
	}
}

// TestKeyFingerprint pins stability and distinctness.
func TestKeyFingerprint(t *testing.T) {
	a, b := KeyFingerprint("config-a"), KeyFingerprint("config-b")
	if a == b || a == "" {
		t.Errorf("fingerprints not distinct: %q %q", a, b)
	}
	if KeyFingerprint("config-a") != a {
		t.Error("fingerprint not stable")
	}
	if KeyFingerprint("") != "" {
		t.Error("empty key must fingerprint to empty")
	}
}

// TestDecisionLogTimestamps verifies records carry the injected clock.
func TestDecisionLogTimestamps(t *testing.T) {
	l := NewDecisionLog(2)
	fixed := time.Unix(1700000000, 42)
	l.clock = func() time.Time { return fixed }
	l.Add(Decision{Source: "memo"})
	if got := l.Last(1)[0].UnixNanos; got != fixed.UnixNano() {
		t.Errorf("UnixNanos = %d, want %d", got, fixed.UnixNano())
	}
}

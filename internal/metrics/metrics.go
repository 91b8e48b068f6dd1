// Package metrics is a dependency-free Prometheus exporter rendering
// the text exposition format 0.0.4 at GET /metricsz. It deliberately
// implements only what this repository scrapes — no client library, no
// push gateway, no protobuf — so the module keeps its zero-dependency
// guarantee while any off-the-shelf Prometheus server can collect a
// soprocd replica or coordinator.
//
// A page has two sources:
//
//   - Snapshot families. Every subsystem in this repository already
//     keeps atomic counters behind a Stats() snapshot, and /statsz
//     serializes those snapshots as JSON. Each numeric field declares
//     its metric twin in a struct tag beside its json tag, and each
//     scrape walks one snapshot (the tag rules are documented on walk),
//     so a counter is declared once and the hot paths gain no new
//     writes.
//   - Live histograms, observed on the hot path by instrumented code
//     and held in a Registry — the engine's per-point latency
//     histogram is the one.
//
// The package also carries the decision-trace ring (DecisionLog): a
// bounded in-memory log of per-point routing decisions exposed at
// GET /v1/trace. Both live in one package because they are the two
// halves of ROADMAP item 4(c): aggregate counters for dashboards,
// per-request records for audits.
//
// ParseText parses the same text format back into families; the
// metrics-contract test and cmd/soload's -lint-metrics mode use it to
// verify that every exposed page is well-formed and conventionally
// named.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type as declared on its # TYPE line.
type Kind string

// The metric kinds this exporter can expose.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name="value" pair attached to a sample.
type Label struct {
	// Name is the label name (a valid Prometheus label identifier).
	Name string
	// Value is the label value; rendering escapes \, " and newlines.
	Value string
}

// sample is one rendered line of a family: an optional suffix
// (histograms emit _bucket/_sum/_count), labels, and a value.
type sample struct {
	suffix string
	labels []Label
	value  float64
}

// family is one named metric family with its samples for one scrape.
type family struct {
	name, help string
	kind       Kind
	samples    []sample
}

// Registry holds the live histograms and renders them, together with
// a walked snapshot, in the text exposition format. The zero value is
// not usable; construct with NewRegistry. Registration panics on a
// duplicate or invalid name — a registration error is a programming
// error, caught by the first scrape in any test. Registration and
// rendering are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// validName reports whether name is a legal Prometheus metric or label
// identifier: [a-zA-Z_][a-zA-Z0-9_]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a live cumulative histogram with fixed bucket upper
// bounds. Observe is safe for concurrent use and lock-free.
type Histogram struct {
	name, help string
	uppers     []float64 // sorted upper bounds, +Inf excluded
	counts     []atomic.Uint64
	sum        atomic.Uint64 // float64 bits
	count      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	for i, ub := range h.uppers {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// family reads the histogram's current buckets, sum and count.
func (h *Histogram) family() *family {
	f := &family{name: h.name, help: h.help, kind: KindHistogram}
	var cum uint64
	for i, ub := range h.uppers {
		cum += h.counts[i].Load()
		f.samples = append(f.samples, sample{suffix: "_bucket", labels: []Label{{"le", formatValue(ub)}}, value: float64(cum)})
	}
	total := h.count.Load()
	f.samples = append(f.samples,
		sample{suffix: "_bucket", labels: []Label{{"le", "+Inf"}}, value: float64(total)},
		sample{suffix: "_sum", value: math.Float64frombits(h.sum.Load())},
		sample{suffix: "_count", value: float64(total)})
	return f
}

// Histogram registers and returns a live histogram with the given
// bucket upper bounds (sorted ascending; the +Inf bucket is implicit).
// It panics if buckets is empty or unsorted, or the name is invalid or
// taken.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	uppers := append([]float64(nil), buckets...)
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending", name))
		}
	}
	h := &Histogram{name: name, help: help, uppers: uppers, counts: make([]atomic.Uint64, len(uppers))}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.hists[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric name %q", name))
	}
	r.hists[name] = h
	return h
}

// formatValue renders a float the way Prometheus expects: shortest
// round-trip representation, with +Inf/-Inf/NaN spelled out. Integral
// values render without a decimal point, which keeps shell assertions
// in CI (string equality on counter values) simple.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Text renders the families declared by snapshot's struct tags (nil
// renders none) together with the registry's live histograms, in the
// Prometheus text exposition format 0.0.4, sorted by family name. It
// fails if snapshot breaks the tag rules or declares a family the
// registry already holds.
func (r *Registry) Text(snapshot any) (string, error) {
	fams, err := walk(snapshot)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	for name, h := range r.hists {
		if _, dup := fams[name]; dup {
			r.mu.Unlock()
			return "", fmt.Errorf("metrics: snapshot declares %q, a live histogram", name)
		}
		fams[name] = h.family()
	}
	r.mu.Unlock()

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	var w strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&w, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			w.WriteString(f.name)
			w.WriteString(s.suffix)
			if len(s.labels) > 0 {
				w.WriteByte('{')
				for i, l := range s.labels {
					if i > 0 {
						w.WriteByte(',')
					}
					w.WriteString(l.Name)
					w.WriteString(`="`)
					w.WriteString(escapeLabel(l.Value))
					w.WriteByte('"')
				}
				w.WriteByte('}')
			}
			w.WriteByte(' ')
			w.WriteString(formatValue(s.value))
			w.WriteByte('\n')
		}
	}
	return w.String(), nil
}

// ContentType is the Content-Type header value for the text exposition
// format this package renders.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler returns an http.Handler serving the registry as a scrape
// endpoint; mount it on GET /metricsz. Each scrape takes one value
// from snapshot (nil: live histograms only) and renders it with Text,
// so every family on a page reads the same snapshot; a snapshot that
// breaks the tag rules is a 500.
func (r *Registry) Handler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var snap any
		if snapshot != nil {
			snap = snapshot()
		}
		page, err := r.Text(snap)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		fmt.Fprint(w, page)
	})
}

// Package tier implements surrogate-first tiered evaluation: the
// repository's three evaluators — the analytic model (microseconds),
// the statistical simulator (tens of milliseconds), and the structural
// simulator (up to ~100ms/point) — arranged as one speed hierarchy
// behind the experiment layer's batch API.
//
// Every sweep point is first scored by the analytic surrogate
// (analytic.Surrogate). What happens next depends on the tier mode:
//
//   - Exact (the default): every returned value is a genuine simulator
//     result. Points whose key (sim.Config.Key) matches a calibration
//     anchor are served from the anchor store (simulator results
//     recorded by cmd/calibrate; JSON round-trips float64 exactly, so
//     anchor-served figures are byte-identical to fresh simulation);
//     everything else escalates to the simulator. Escalated structural
//     points batch through one shape-keyed pooled machine per group
//     (sim.RunStructuralBatch) when running locally, or route like
//     ordinary structural points when the engine has a cluster router.
//
//   - Fast (explicit opt-in): points in regions the calibration
//     certifies, and not within their error band of the caller's
//     decision boundary (Decision), are answered from the surrogate and
//     tagged Source="surrogate"; boundary points, uncertified regions,
//     and anchor misses under a decision all escalate exactly as above.
//
// The certification contract: in fast mode a surrogate-served value is
// wrong by at most the region's calibrated MaxRelErr × Safety, and any
// point whose answer could change the caller's decision under that
// bound has escalated — so figures regenerated in tiered mode are
// byte-identical to full simulation wherever the band says escalation
// fires. The band math and the calibration harness live in
// calibration.go and calibrate.go; boundary predicates in decision.go.
package tier

import (
	"context"
	"math"
	"sync/atomic"

	"scaleout/internal/analytic"
	"scaleout/internal/exp"
	"scaleout/internal/exp/engine"
	"scaleout/internal/sim"
)

// Mode selects how much the evaluator trusts the surrogate.
type Mode int

const (
	// Exact returns genuine simulator results for every point,
	// accelerating only through anchors and batched escalation. It is
	// the default everywhere (the /v1/sweep tier field, soproc -tier).
	Exact Mode = iota
	// Fast serves certified interior points from the surrogate, tagged
	// Source="surrogate". Callers opt in explicitly.
	Fast
)

// String returns the mode's wire name ("exact" or "fast").
func (m Mode) String() string {
	if m == Fast {
		return "fast"
	}
	return "exact"
}

// ParseMode parses a wire-form tier name; the empty string is Exact
// (the documented default of the sweep API's tier field).
func ParseMode(s string) (Mode, bool) {
	switch s {
	case "", "exact":
		return Exact, true
	case "fast":
		return Fast, true
	default:
		return Exact, false
	}
}

type modeKey struct{}

// WithMode returns a context that overrides the evaluator's default
// mode for batches evaluated under it — how the serve layer applies a
// per-request tier field to the daemon's shared evaluator.
func WithMode(ctx context.Context, m Mode) context.Context {
	return context.WithValue(ctx, modeKey{}, m)
}

// modeFrom returns the context's mode override, or fallback.
func modeFrom(ctx context.Context, fallback Mode) Mode {
	if m, ok := ctx.Value(modeKey{}).(Mode); ok {
		return m
	}
	return fallback
}

// Evaluator is the tiered evaluator. It implements exp.Tier, so
// installing it on a context (exp.WithTier) reroutes every
// exp.Sims/exp.Structurals batch in the repository through the tiers.
// Construct with New; an Evaluator is safe for concurrent use.
type Evaluator struct {
	mode        Mode
	safety      float64
	granularity int

	regions       map[string]Region
	simAnchors    map[string]sim.Result
	structAnchors map[string]sim.StructuralResult

	scored          atomic.Int64
	anchorHits      atomic.Int64
	surrogateServed atomic.Int64
	escalated       atomic.Int64

	// decision, when set (SetDecisionHook), observes every point the
	// evaluator answers without touching the engine: anchor-store hits
	// and surrogate-served points. Escalated points reach the engine
	// and are observed there.
	decision atomic.Pointer[DecisionHook]
}

// DecisionHook receives one record per point the evaluator served
// itself, with the point's canonical key and the serving tier as
// source: "anchor" (calibration anchor store) or "surrogate" (analytic
// model, fast mode). Hooks must be fast and non-blocking; they run
// synchronously on the evaluation path.
type DecisionHook func(key, source string)

// SetDecisionHook installs fn as the evaluator's decision observer; a
// nil fn removes it.
func (ev *Evaluator) SetDecisionHook(fn DecisionHook) {
	if fn == nil {
		ev.decision.Store(nil)
		return
	}
	ev.decision.Store(&fn)
}

// emitDecision reports one self-served point to the installed hook.
func (ev *Evaluator) emitDecision(key, source string) {
	if hook := ev.decision.Load(); hook != nil {
		(*hook)(key, source)
	}
}

// New builds an evaluator from a calibration (nil means uncalibrated:
// no anchors, no certified regions, so every point escalates and exact
// mode degenerates to plain simulation) with the given default mode.
func New(c *Calibration, mode Mode) *Evaluator {
	ev := &Evaluator{
		mode:          mode,
		safety:        DefaultSafety,
		granularity:   DefaultGranularity,
		regions:       map[string]Region{},
		simAnchors:    map[string]sim.Result{},
		structAnchors: map[string]sim.StructuralResult{},
	}
	if c != nil {
		c.normalize()
		ev.safety = c.Safety
		ev.granularity = c.Granularity
		for _, r := range c.Regions {
			ev.regions[r.Key] = r
		}
		for _, a := range c.SimAnchors {
			ev.simAnchors[a.Key] = a.Result
		}
		for _, a := range c.StructuralAnchors {
			ev.structAnchors[a.Key] = a.Result
		}
	}
	return ev
}

// Stats is a snapshot of the evaluator's per-tier point counters; the
// JSON field names are the /statsz tier section's wire format, and the
// metric tags name each field's /metricsz twin.
type Stats struct {
	// Scored counts every point the evaluator saw (all are surrogate-
	// scored first). AnchorHits were served from the calibration anchor
	// store, SurrogateServed from the surrogate in fast mode, and
	// Escalated went to the simulators.
	Scored          int64 `json:"scored" metric:"soproc_tier_scored_points_total" help:"points seen by the tiered evaluator (all surrogate-scored first)"`
	AnchorHits      int64 `json:"anchor_hits" metric:"soproc_tier_anchor_hits_total" help:"points served from the calibration anchor store"`
	SurrogateServed int64 `json:"surrogate_served" metric:"soproc_tier_surrogate_served_total" help:"points served from the analytic surrogate in fast mode"`
	Escalated       int64 `json:"escalated" metric:"soproc_tier_escalated_points_total" help:"points escalated to the simulators"`
	// EscalationRate is Escalated/Scored (0 when nothing was scored).
	EscalationRate float64 `json:"escalation_rate" metric:"-" help:"derived ratio; compute from escalated/scored at query time"`
	// Anchors and Regions describe the loaded calibration.
	Anchors int `json:"anchors" metric:"soproc_tier_anchors" help:"calibration anchors loaded"`
	Regions int `json:"regions" metric:"soproc_tier_regions" help:"certified calibration regions loaded"`
}

// Stats snapshots the evaluator's counters.
func (ev *Evaluator) Stats() Stats {
	s := Stats{
		Scored:          ev.scored.Load(),
		AnchorHits:      ev.anchorHits.Load(),
		SurrogateServed: ev.surrogateServed.Load(),
		Escalated:       ev.escalated.Load(),
		Anchors:         len(ev.simAnchors) + len(ev.structAnchors),
		Regions:         len(ev.regions),
	}
	if s.Scored > 0 {
		s.EscalationRate = float64(s.Escalated) / float64(s.Scored)
	}
	return s
}

// band returns the certified escalation band half-width around a
// surrogate score: the region's worst observed relative error, times
// the safety margin, times the score's magnitude. An unknown or
// uncertifiable region returns +Inf — its points always escalate.
func (ev *Evaluator) band(regionKey string, score float64) float64 {
	r, ok := ev.regions[regionKey]
	if !ok || r.Samples == 0 || r.MaxRelErr > maxCertifiableRelErr {
		return math.Inf(1)
	}
	return r.MaxRelErr * ev.safety * math.Abs(score)
}

// certified reports whether the calibration certifies regionKey: its
// points carry a finite escalation band and are eligible for surrogate
// serving in fast mode.
func (ev *Evaluator) certified(regionKey string) bool {
	r, ok := ev.regions[regionKey]
	return ok && r.Samples > 0 && r.MaxRelErr <= maxCertifiableRelErr
}

// fullEscalation reports whether every point of a batch must escalate
// regardless of what the surrogate would say: no point matches an
// anchor, and either the mode is exact (anchors are the only
// non-simulator source) or no point falls in a certified region. When
// it holds, per-point surrogate scoring is pure overhead — the batch
// goes straight to batched simulation, so a tiered sweep the
// calibration cannot serve (escalation rate 1.0) costs the same as
// -tier exact instead of running slower than it. anchored and
// certifiedAt report, per point index, an anchor match and a certified
// region.
func fullEscalation(mode Mode, n int, anchored, certifiedAt func(i int) bool) bool {
	for i := 0; i < n; i++ {
		if anchored(i) {
			return false
		}
		if mode == Fast && certifiedAt(i) {
			return false
		}
	}
	return true
}

// simSpec maps a canonical statistical configuration onto the
// surrogate's input.
func simSpec(cc sim.Config) analytic.SurrogateSpec {
	return analytic.SurrogateSpec{
		Workload:    cc.Workload,
		Design:      analytic.DesignFor(cc.CoreType, cc.Cores, cc.LLCMB, cc.Net),
		SWScaling:   !cc.DisableSWScaling,
		MemChannels: cc.MemChannels,
	}
}

// structuralSpec maps a canonical structural configuration onto the
// surrogate's input; the MSHR bound is the structural-only knob the
// surrogate models (analytic.Surrogate).
func structuralSpec(cc sim.StructuralConfig) analytic.SurrogateSpec {
	return analytic.SurrogateSpec{
		Workload:    cc.Workload,
		Design:      analytic.DesignFor(cc.CoreType, cc.Cores, cc.LLCMB, cc.Net),
		MSHRs:       cc.L1MSHRs,
		SWScaling:   true,
		MemChannels: cc.MemChannels,
	}
}

// surrogateSimResult shapes a surrogate estimate as the statistical
// simulator's result type, tagged so callers can tell it apart.
func surrogateSimResult(est analytic.Estimate) sim.Result {
	return sim.Result{
		AppIPC:     est.AppIPC,
		PerCoreIPC: est.PerCoreIPC,
		OffChipGBs: est.OffChipGBs,
		Source:     "surrogate",
	}
}

// surrogateStructuralResult is surrogateSimResult for the structural
// result type, with the surrogate's emergent-cache predictions filled.
func surrogateStructuralResult(est analytic.Estimate) sim.StructuralResult {
	return sim.StructuralResult{
		Result:     surrogateSimResult(est),
		L1IMPKI:    est.L1IMPKI,
		L1DMPKI:    est.L1DMPKI,
		LLCMissPct: est.LLCMissPct,
	}
}

// Sims implements exp.Tier for statistical-simulator batches.
func (ev *Evaluator) Sims(ctx context.Context, cfgs []sim.Config) ([]sim.Result, error) {
	out, _, err := ev.SimsDecided(ctx, cfgs, nil)
	return out, err
}

// Structurals implements exp.Tier for structural-simulator batches.
func (ev *Evaluator) Structurals(ctx context.Context, cfgs []sim.StructuralConfig) ([]sim.StructuralResult, error) {
	out, _, err := ev.StructuralsDecided(ctx, cfgs, nil)
	return out, err
}

// SimsDecided evaluates a statistical batch under a decision boundary
// and additionally reports which points escalated (were within their
// band of the boundary, in an uncertified region, or — in exact mode —
// simply not anchored). A nil decision means the sweep feeds no
// boundary: in fast mode every certified point is then surrogate-
// served; in exact mode the decision is irrelevant to results.
func (ev *Evaluator) SimsDecided(ctx context.Context, cfgs []sim.Config, d Decision) ([]sim.Result, []bool, error) {
	n := len(cfgs)
	out := make([]sim.Result, n)
	keys := make([]string, n)
	ccs := make([]sim.Config, n)
	for i, c := range cfgs {
		cc, key, err := c.CanonicalKey()
		if err != nil {
			return nil, nil, err
		}
		ccs[i], keys[i] = cc, key
	}
	ev.scored.Add(int64(n))
	mode := modeFrom(ctx, ev.mode)

	var boundary []bool
	var escalate []int
	if fullEscalation(mode, n,
		func(i int) bool { _, ok := ev.simAnchors[keys[i]]; return ok },
		func(i int) bool { return ev.certified(simRegionKey(ev.granularity, ccs[i])) },
	) {
		// Nothing in the batch is servable below the simulator: skip
		// surrogate scoring entirely and escalate everything.
		boundary = make([]bool, n)
		escalate = make([]int, n)
		for i := range cfgs {
			boundary[i] = true
			escalate[i] = i
		}
	} else {
		scores := make([]float64, n)
		bands := make([]float64, n)
		ests := make([]analytic.Estimate, n)
		for i := range cfgs {
			ests[i] = analytic.Surrogate(simSpec(ccs[i]))
			scores[i] = ests[i].AppIPC
			bands[i] = ev.band(simRegionKey(ev.granularity, ccs[i]), scores[i])
		}
		boundary = boundarySet(d, scores, bands)
		for i := range cfgs {
			if r, ok := ev.simAnchors[keys[i]]; ok {
				out[i] = r
				ev.anchorHits.Add(1)
				ev.emitDecision(keys[i], "anchor")
				continue
			}
			if mode == Fast && !boundary[i] && !math.IsInf(bands[i], 1) {
				out[i] = surrogateSimResult(ests[i])
				ev.surrogateServed.Add(1)
				ev.emitDecision(keys[i], "surrogate")
				continue
			}
			boundary[i] = true // escalated for any reason counts as boundary in the report
			escalate = append(escalate, i)
		}
	}
	ev.escalated.Add(int64(len(escalate)))
	if len(escalate) > 0 {
		eng := exp.FromContext(ctx)
		pts := make([]exp.Point[sim.Result], len(escalate))
		for k, i := range escalate {
			pts[k] = exp.SimPoint{Config: cfgs[i], K: keys[i]}
		}
		res, err := exp.Points(ctx, eng, pts)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range escalate {
			out[i] = res[k]
		}
	}
	return out, boundary, nil
}

// StructuralsDecided is SimsDecided for the structural simulator.
// Escalated points route like ordinary structural points when the
// engine has a cluster router; otherwise they run through the local
// shape-batched machine path (sim.RunStructuralBatch) and seed the
// engine's memo, so a later request for the same key is a hit.
func (ev *Evaluator) StructuralsDecided(ctx context.Context, cfgs []sim.StructuralConfig, d Decision) ([]sim.StructuralResult, []bool, error) {
	n := len(cfgs)
	out := make([]sim.StructuralResult, n)
	keys := make([]string, n)
	ccs := make([]sim.StructuralConfig, n)
	for i, c := range cfgs {
		cc, key, err := c.CanonicalKey()
		if err != nil {
			return nil, nil, err
		}
		ccs[i], keys[i] = cc, key
	}
	ev.scored.Add(int64(n))
	mode := modeFrom(ctx, ev.mode)

	var boundary []bool
	var escalate []int
	if fullEscalation(mode, n,
		func(i int) bool { _, ok := ev.structAnchors[keys[i]]; return ok },
		func(i int) bool { return ev.certified(structuralRegionKey(ev.granularity, ccs[i])) },
	) {
		boundary = make([]bool, n)
		escalate = make([]int, n)
		for i := range cfgs {
			boundary[i] = true
			escalate[i] = i
		}
	} else {
		scores := make([]float64, n)
		bands := make([]float64, n)
		ests := make([]analytic.Estimate, n)
		for i := range cfgs {
			ests[i] = analytic.Surrogate(structuralSpec(ccs[i]))
			scores[i] = ests[i].AppIPC
			bands[i] = ev.band(structuralRegionKey(ev.granularity, ccs[i]), scores[i])
		}
		boundary = boundarySet(d, scores, bands)
		for i := range cfgs {
			if r, ok := ev.structAnchors[keys[i]]; ok {
				out[i] = r
				ev.anchorHits.Add(1)
				ev.emitDecision(keys[i], "anchor")
				continue
			}
			if mode == Fast && !boundary[i] && !math.IsInf(bands[i], 1) {
				out[i] = surrogateStructuralResult(ests[i])
				ev.surrogateServed.Add(1)
				ev.emitDecision(keys[i], "surrogate")
				continue
			}
			boundary[i] = true
			escalate = append(escalate, i)
		}
	}
	ev.escalated.Add(int64(len(escalate)))
	if err := ev.runStructurals(ctx, cfgs, keys, escalate, out); err != nil {
		return nil, nil, err
	}
	return out, boundary, nil
}

// boundarySet applies the decision, defaulting to "no point is on a
// boundary" when the sweep feeds none.
func boundarySet(d Decision, scores, bands []float64) []bool {
	if d == nil {
		return make([]bool, len(scores))
	}
	return d.Escalate(scores, bands)
}

// runStructurals computes the escalated structural points. With a live
// cluster router the points go through the routable per-point path, so
// a coordinator ships them to the replicas owning their keys —
// surrogate-answered and anchor-served points never left this process.
// Locally they batch by machine shape, after a memo peek, and the
// results seed the memo for later non-tiered callers.
func (ev *Evaluator) runStructurals(ctx context.Context, cfgs []sim.StructuralConfig, keys []string, escalate []int, out []sim.StructuralResult) error {
	if len(escalate) == 0 {
		return nil
	}
	eng := exp.FromContext(ctx)
	if eng.HasRoute() && !engine.RoutingDisabled(ctx) {
		pts := make([]exp.Point[sim.StructuralResult], len(escalate))
		for k, i := range escalate {
			pts[k] = exp.StructuralPoint{Config: cfgs[i], K: keys[i]}
		}
		res, err := exp.Points(ctx, eng, pts)
		if err != nil {
			return err
		}
		for k, i := range escalate {
			out[i] = res[k]
		}
		return nil
	}

	// Local path: serve what the engine already holds, dedup the rest
	// by key, and run one shape-batched pass.
	var miss []int
	first := map[string]int{} // key -> index into miss batch
	var batch []sim.StructuralConfig
	for _, i := range escalate {
		if v, ok := eng.Cached(keys[i]); ok {
			out[i] = v.(sim.StructuralResult)
			continue
		}
		if _, dup := first[keys[i]]; !dup {
			first[keys[i]] = len(batch)
			batch = append(batch, cfgs[i])
		}
		miss = append(miss, i)
	}
	if len(batch) == 0 {
		return nil
	}
	res, err := sim.RunStructuralBatchContext(ctx, batch)
	if err != nil {
		return err
	}
	for key, k := range first {
		eng.Seed(key, res[k])
	}
	for _, i := range miss {
		out[i] = res[first[keys[i]]]
	}
	return nil
}

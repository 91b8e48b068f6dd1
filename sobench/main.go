// Command sobench is the repository benchmark: it regenerates the
// paper's figure suite cold and warm, and serves sweeps from a daemon
// while new points are written beside the reads, then prints one JSON
// line of metrics. Run it from the repository root:
//
//	bash sobench/run.sh --workload node --seed 1 --seconds 45 --trace 0
//
// Workloads are deployments, each running every phase below:
//
//	node     one daemon with a persistent store and admission control;
//	         suite passes run in process (cold: nothing cached, warm:
//	         every point from the store the set-up filled)
//	cluster  a coordinator daemon in front of two store-less replicas;
//	         suite passes go through the coordinator (cold: restarted
//	         replicas, warm: a fresh coordinator engine, warm replicas)
//
// Each round runs, in order: cold suite passes, warm suite passes, then
// sweep traffic against the front daemon — read (open-loop batches of
// suite points it already holds), mixed (the same reads plus
// single-point writes of new points), capacity (a closed loop on every
// connection). --seconds sets the number of rounds.
//
// --trace 1 runs the same phases with spans recorded at every public
// seam (tier, store, route, decision hook, HTTP middleware, client) and
// prints per-layer metrics instead; end-to-end metrics come only from
// --trace 0. spec.json describes every metric, its state and the
// layer each one should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the benchmark itself reads.
type spec struct {
	SuiteDigest string `json:"suite_digest"`
	Metrics     []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	Layers []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// plan sizes a run's phases from its measurement budget. Counts and
// fixed phase lengths, not a deadline, so two runs of one budget do the
// same work. The phases run in rounds, so every metric samples the
// whole run rather than one stretch of it.
type plan struct {
	setups     int
	rounds     int
	coldPasses int           // per round
	warmPasses int           // per round
	batch      int           // suite points per read request
	readRate   float64       // read requests per second
	read       time.Duration // phase read, per round
	mixed      time.Duration // phase mixed, per round
	writeRate  float64       // new points written per second in phase mixed
	capacity   time.Duration // phase capacity, per round
	overheadN  int           // traced and untraced warm passes each (--trace 1)
}

// One round takes about nine seconds on a 2-CPU host.
func planFor(seconds int) plan {
	return plan{
		setups:     3,
		rounds:     max(1, seconds/9),
		coldPasses: 1,
		warmPasses: 15,
		batch:      16,
		readRate:   150,
		read:       2500 * time.Millisecond,
		mixed:      3 * time.Second,
		writeRate:  10,
		capacity:   time.Second,
		overheadN:  30,
	}
}

func (p plan) readsIn(d time.Duration) int { return int(p.readRate * d.Seconds()) }
func (p plan) writesPerRound() int         { return int(p.writeRate * p.mixed.Seconds()) }

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	workload := flag.String("workload", "", "node or cluster")
	seed := flag.Int64("seed", -1, "workload seed (required, >= 0): read order and new points' seeds")
	seconds := flag.Int("seconds", 30, "measurement budget in seconds")
	traceFlag := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return fail("spec.json: %v", err)
	}
	if *seed < 0 {
		return fail("--seed is required")
	}
	if *workload != "node" && *workload != "cluster" {
		return fail("--workload must be node or cluster, got %q", *workload)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fail("--seconds must be >= 1 and --trace 0 or 1")
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
	}
	pl := planFor(*seconds)
	root := filepath.Join(".bench_build", "sobench")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fail("%v", err)
	}

	// Set up from scratch pl.setups times and keep the last deployment;
	// setup_s is the median.
	var e *env
	var setupTimes []float64
	var opens []float64
	for i := 0; i < pl.setups; i++ {
		if e != nil {
			e.close()
		}
		dir, err := os.MkdirTemp(root, "run-")
		if err != nil {
			return fail("%v", err)
		}
		t := time.Now()
		e, err = setup(*workload, *seed, pl.rounds*pl.writesPerRound(), dir, tr, sp.SuiteDigest)
		if err != nil {
			os.RemoveAll(dir)
			return fail("set-up: %v", err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
		opens = append(opens, e.storeOpen.Seconds())
	}
	defer e.close()
	fmt.Fprintf(os.Stderr, "sobench: %s seed %d: %d suite points, %d new points; set-up %.3fs (median of %d), process start to here %.3fs\n",
		*workload, *seed, len(e.suite), len(e.writes), median(append([]float64(nil), setupTimes...)), pl.setups, time.Since(start).Seconds())

	// References, off the clock: every point run directly on the kernel.
	t := time.Now()
	if err := computeRefs(append(append([]*point(nil), e.suite...), e.writes...)); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "sobench: references for %d points in %.3fs\n", len(e.suite)+len(e.writes), time.Since(t).Seconds())

	r := &runner{e: e, pl: pl, tr: tr, rng: rand.New(rand.NewSource(*seed)), digest: sp.SuiteDigest}
	r.t.check(e.verifyWarmup())
	if err := r.phases(); err != nil {
		return fail("%v", err)
	}

	out := result{Correct: r.t.failed == 0, Attempted: r.t.attempted, Failed: r.t.failed, Metrics: map[string]metric{}}
	if tr == nil {
		r.endToEnd(out.Metrics, median(setupTimes))
	} else {
		r.perLayer(out.Metrics, median(opens))
		path := filepath.Join(root, fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := tr.write(path); err != nil {
			return fail("writing spans: %v", err)
		}
		fmt.Fprintf(os.Stderr, "sobench: spans written to %s\n", path)
	}
	want := sp.Metrics
	if tr != nil {
		want = sp.Layers
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fail("metric %s: missing or not in %s", m.Name, m.Unit)
		}
	}
	if len(out.Metrics) != len(want) {
		return fail("%d metrics measured, spec.json names %d", len(out.Metrics), len(want))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "sobench: %d of %d operations failed\n", r.t.failed, r.t.attempted)
		return 1
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "sobench: "+format+"\n", args...)
	return 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Command perfbench is the repository's end-to-end benchmark: time to
// diagnosis and diagnoses per second of the Lazy Diagnosis service on
// four workloads, with a traced mode that breaks the time down by
// layer. Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-saturate --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md for
// the workloads and every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"snorlax/internal/obs"
	"snorlax/internal/shard"
)

// workload runs one round: set-up, warm-up, a fixed amount of measured
// work, and verification. It reports through the round context.
type workload func(rc *roundCtx) error

var workloads = map[string]workload{
	"fleet-collect":  runCollect,
	"fleet-saturate": runSaturate,
	"fleet-restart":  runRestart,
	"local-session":  runLocal,
}

// minRounds is the least number of rounds per run, so set-up time is
// a median of several set-ups and the traced run has untraced rounds
// to compare against.
const minRounds = 3

// roundCtx carries one round's inputs and measurements. Every round
// starts from fresh state (new tier, empty state directory, cold
// caches) and does the same amount of work, so per-operation cost
// cannot drift with how long the run has been going.
type roundCtx struct {
	idx  int
	seed int64
	rng  *rand.Rand
	tr   *tracer // nil in untraced rounds
	dir  string  // this round's state directory

	start      time.Time
	setup      time.Duration
	measured   time.Duration
	mStart     time.Time
	heapSetup  uint64
	heapEnd    uint64
	ctr        map[string]float64 // counter deltas over the measured phase
	ctrBefore  map[string]float64
	goBefore   goStats
	allocBytes float64
	gcCPU      float64
	usedCPU    float64

	ttd       []time.Duration
	diagnoses int
	attempted int
	failed    int
	problems  []string

	// Layer counts the workload records while it drives the system.
	uploaded, accepted int64
	polls, usefulPolls int64
	reports, patterns  int64
	late               []float64 // ms the open loop ran behind schedule
}

// setupDone ends set-up: it records set-up time and the live heap the
// retained-memory figure is measured against.
func (rc *roundCtx) setupDone() {
	rc.setup = time.Since(rc.start)
	rc.heapSetup = liveHeap()
	rc.tr.setPhase("warmup")
}

// beginMeasure opens a measured window; the counters of regs are read
// at both ends of it.
func (rc *roundCtx) beginMeasure(regs ...*obs.Registry) {
	rc.tr.setPhase("measure")
	rc.ctrBefore = counters(regs...)
	rc.goBefore = readGoStats()
	rc.mStart = time.Now()
}

// pauseMeasure closes a measured window.
func (rc *roundCtx) pauseMeasure(regs ...*obs.Registry) {
	rc.measured += time.Since(rc.mStart)
	g := readGoStats()
	rc.allocBytes += float64(g.totalAlloc - rc.goBefore.totalAlloc)
	rc.gcCPU += g.gcCPU - rc.goBefore.gcCPU
	rc.usedCPU += g.usedCPU - rc.goBefore.usedCPU
	addDelta(rc.ctr, rc.ctrBefore, counters(regs...))
	rc.tr.setPhase("between")
}

// finishMeasure reads the live heap the measured phase leaves behind.
func (rc *roundCtx) finishMeasure() {
	rc.heapEnd = liveHeap()
	rc.tr.setPhase("verify")
}

// caseBase offsets the round's case numbers, so the spans of
// different rounds never share a case id.
func (rc *roundCtx) caseBase() int64 { return int64(rc.idx) * 1_000_000 }

func (rc *roundCtx) problem(format string, args ...any) {
	rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
}

func (rc *roundCtx) retainedMB() float64 {
	return (float64(rc.heapEnd) - float64(rc.heapSetup)) / (1 << 20)
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

func main() {
	name := flag.String("workload", "", "workload: fleet-collect, fleet-saturate, fleet-restart or local-session")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run (at least three rounds run)")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, reconciliation and tracing overhead")
	out := flag.String("out", ".bench_build", "directory for state, spans and the build")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes rounds until at least minRounds have run and the
// measured time reaches the budget. In a traced run every other round
// is traced; the untraced ones give the overhead's baseline.
func run(name string, w workload, seed int64, budget time.Duration, traced bool, out string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	need := minRounds
	if traced {
		need = 4
	}
	var rounds []*roundCtx
	var measured time.Duration
	for i := 0; i < need || measured < budget; i++ {
		rc := &roundCtx{idx: i, seed: seed, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			dir: filepath.Join(out, "state", fmt.Sprintf("%s-s%d-r%d", name, seed, i)),
			ctr: map[string]float64{}}
		if traced && i%2 == 1 {
			rc.tr = tr
			tr.setPhase("setup")
		}
		if err := os.RemoveAll(rc.dir); err != nil {
			return nil, err
		}
		runtime.GC()
		rc.start = time.Now()
		err := w(rc)
		os.RemoveAll(rc.dir)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", name, i, err)
		}
		rc.chargeRetries()
		rounds = append(rounds, rc)
		measured += rc.measured
		label := ""
		if rc.tr != nil {
			label = " (traced)"
		}
		fmt.Printf("round %d%s: setup %.3fs, measured %.3fs, %d diagnoses, ttd p50 %.2fms, retained %.2f MB, %d/%d ops failed, %.0f router retries\n",
			i, label, rc.setup.Seconds(), rc.measured.Seconds(),
			rc.diagnoses, median(durationsMs(rc.ttd)), rc.retainedMB(), rc.failed, rc.attempted,
			rc.ctr[shard.MetricRouterRetries])
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var plain, withTrace []*roundCtx
	for _, rc := range rounds {
		res.Attempted += rc.attempted
		res.Failed += rc.failed
		for _, p := range rc.problems {
			res.Correct = false
			fmt.Println("WRONG:", p)
		}
		if rc.tr != nil {
			withTrace = append(withTrace, rc)
		} else {
			plain = append(plain, rc)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	e2e, err := endToEnd(plain)
	if err != nil {
		return nil, err
	}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = layers(name, withTrace, tr, e2e)
	path := filepath.Join(out, "spans", fmt.Sprintf("%s-s%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// endToEnd computes the user-facing metrics over untraced rounds and
// prints each with its per-round values.
func endToEnd(rounds []*roundCtx) (map[string]metric, error) {
	all := ttdSamples(rounds)
	perRound := map[string][]float64{}
	for _, rc := range rounds {
		perRound["ttd_p50_ms"] = append(perRound["ttd_p50_ms"], median(durationsMs(rc.ttd)))
		perRound["diagnoses_per_s"] = append(perRound["diagnoses_per_s"], ratio(float64(rc.diagnoses), rc.measured.Seconds()))
		perRound["retained_mb"] = append(perRound["retained_mb"], rc.retainedMB())
		perRound["setup_s"] = append(perRound["setup_s"], rc.setup.Seconds())
	}
	p50, err := percentile(all, 0.50)
	if err != nil {
		return nil, fmt.Errorf("ttd_p50_ms: %w", err)
	}
	p90, err := percentile(all, 0.90)
	if err != nil {
		return nil, fmt.Errorf("ttd_p90_ms: %w", err)
	}
	m := map[string]metric{
		"ttd_p50_ms":      {p50, "ms"},
		"ttd_p90_ms":      {p90, "ms"},
		"diagnoses_per_s": {median(perRound["diagnoses_per_s"]), "1/s"},
		"retained_mb":     {median(perRound["retained_mb"]), "MB"},
		"setup_s":         {median(perRound["setup_s"]), "s"},
	}
	fmt.Printf("time to diagnosis over %d cases in %d rounds; deciles (ms):", len(all), len(rounds))
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	for d := 1; d < 10; d++ {
		fmt.Printf(" %.2f", sorted[d*len(sorted)/10])
	}
	fmt.Println()
	for _, k := range sortedKeys(m) {
		line := fmt.Sprintf("  %-16s %12.4f %-4s", k, m[k].Value, m[k].Unit)
		if xs := perRound[k]; len(xs) > 0 {
			line += "   per round:"
			for _, x := range xs {
				line += fmt.Sprintf(" %.4f", x)
			}
		}
		fmt.Println(line)
	}
	return m, nil
}

// ttdSamples pools the rounds' time-to-diagnosis samples, in ms.
func ttdSamples(rounds []*roundCtx) []float64 {
	var all []float64
	for _, rc := range rounds {
		all = append(all, durationsMs(rc.ttd)...)
	}
	return all
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ttdCap stands in for the latency of a case that never produced a
// correct report: it misses any latency limit.
const ttdCap = time.Duration(math.MaxInt64)

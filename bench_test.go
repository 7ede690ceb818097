// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports its headline quantity as a custom metric
// (µs gaps, overhead %, speedups, accuracy) in addition to wall time.
package snorlax_test

import (
	"runtime"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/experiments"
	"snorlax/internal/ir"
	"snorlax/internal/pattern"
	"snorlax/internal/pointsto"
	"snorlax/internal/pt"
	"snorlax/internal/racedet"
	"snorlax/internal/replay"
	"snorlax/internal/statdiag"
	"snorlax/internal/traceproc"
	"snorlax/internal/vm"
)

// --- Tables 1–3: the coarse interleaving hypothesis ---------------------

func benchHypothesis(b *testing.B, kind pattern.Kind) {
	b.ReportAllocs()
	var meanUS float64
	for i := 0; i < b.N; i++ {
		rows := experiments.HypothesisTable(kind, 2)
		var sum float64
		var n int
		for _, r := range rows {
			for _, m := range r.MeanUS {
				sum += m
				n++
			}
		}
		meanUS = sum / float64(n)
	}
	b.ReportMetric(meanUS, "ΔT-µs")
}

func BenchmarkTable1Deadlocks(b *testing.B) {
	benchHypothesis(b, pattern.KindDeadlock)
}

func BenchmarkTable2OrderViolations(b *testing.B) {
	benchHypothesis(b, pattern.KindOrderViolation)
}

func BenchmarkTable3AtomicityViolations(b *testing.B) {
	benchHypothesis(b, pattern.KindAtomicityViolation)
}

// --- §6.1: accuracy ------------------------------------------------------

func BenchmarkAccuracyAllBugs(b *testing.B) {
	var correct, total int
	for i := 0; i < b.N; i++ {
		correct, total = 0, 0
		for _, row := range experiments.Accuracy(corpus.EvalSet()) {
			total++
			if row.Correct {
				correct++
			}
		}
	}
	b.ReportMetric(100*float64(correct)/float64(total), "accuracy-%")
}

// --- Figure 7: stage contributions --------------------------------------

func BenchmarkFig7StageContribution(b *testing.B) {
	var geoScope, geoRank float64
	for i := 0; i < b.N; i++ {
		_, geoScope, geoRank = experiments.Fig7(corpus.EvalSet())
	}
	b.ReportMetric(geoScope, "scope-reduction-x")
	b.ReportMetric(geoRank, "rank-reduction-x")
}

// --- Figure 8: tracing overhead ------------------------------------------

func BenchmarkFig8TracingOverhead(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		_, avg = experiments.Fig8(2, 10, 1)
	}
	b.ReportMetric(avg, "overhead-%")
}

// --- Table 4: analysis speedup -------------------------------------------

func BenchmarkTable4AnalysisSpeedup(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		_, geo = experiments.Table4(1)
	}
	b.ReportMetric(geo, "speedup-x")
}

// --- Figure 9: scalability vs Gist ---------------------------------------

func BenchmarkFig9Scalability(b *testing.B) {
	var snorlax32, gist32 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9([]int{2, 32}, 5)
		snorlax32 = rows[len(rows)-1].SnorlaxPct
		gist32 = rows[len(rows)-1].GistPct
	}
	b.ReportMetric(snorlax32, "snorlax-32t-%")
	b.ReportMetric(gist32, "gist-32t-%")
}

// --- §6.3: diagnosis latency ---------------------------------------------

func BenchmarkLatencyComparison(b *testing.B) {
	var chromium float64
	for i := 0; i < b.N; i++ {
		r := experiments.Latency()
		for _, row := range r.Model {
			if row.OpenBugs == 684 {
				chromium = row.SpeedupOverGist
			}
		}
	}
	b.ReportMetric(chromium, "chromium-speedup-x")
}

// --- §5: trace statistics --------------------------------------------------

func BenchmarkTraceStats(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		events = experiments.TraceStats("mysql").ControlEventsPerThread
	}
	b.ReportMetric(float64(events), "events/thread")
}

// --- Pipeline micro-benchmarks -------------------------------------------

// BenchmarkDiagnoseSingleFailure measures the end-to-end server-side
// analysis cost for one failing trace (the paper: ~2.5s on 650 KLOC
// MySQL; ours is a far smaller module).
func BenchmarkDiagnoseSingleFailure(b *testing.B) {
	inst := corpus.ByID("mysql-3").Build(corpus.Variant{Failing: true})
	client := core.NewClient(inst.Mod)
	rep := client.Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("expected failure")
	}
	srv := core.NewServer(inst.Mod)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Diagnose(rep, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecode measures reconstructing the dynamic
// instruction trace from captured rings.
func BenchmarkTraceDecode(b *testing.B) {
	mod := corpus.Perf("mysql", 2, 20)
	enc := pt.NewEncoder(pt.Config{})
	res := vm.Run(mod, vm.Config{Seed: 1, Sink: enc})
	if res.Failed() {
		b.Fatal(res.Failure)
	}
	snap := enc.Snapshot()
	b.ResetTimer()
	var decoded int
	for i := 0; i < b.N; i++ {
		traces, err := pt.DecodeSnapshot(mod, snap, pt.Config{}, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		decoded = 0
		for _, tt := range traces {
			decoded += len(tt.Instrs)
		}
	}
	b.ReportMetric(float64(decoded), "instrs")
}

// BenchmarkVMExecution measures raw interpreter throughput.
func BenchmarkVMExecution(b *testing.B) {
	mod := corpus.Perf("pbzip2", 2, 10)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		res := vm.Run(mod, vm.Config{Seed: int64(i)})
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "steps/run")
}

// --- Parallel diagnosis pipeline -------------------------------------------

// manySuccessReports reproduces httpd-4 once and gathers 12 successful
// triggered traces — the 10+-trace diagnosis the parallel pipeline is
// built for.
func manySuccessReports(b testing.TB) (*corpus.Instance, *core.RunReport, []*core.RunReport) {
	b.Helper()
	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("expected failure")
	}
	okClient := core.NewClient(okInst.Mod)
	var oks []*core.RunReport
	for seed := int64(1); len(oks) < 12 && seed < 100; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered {
			oks = append(oks, r)
		}
	}
	if len(oks) < 12 {
		b.Fatalf("gathered %d/12 successful traces", len(oks))
	}
	return failInst, rep, oks
}

// BenchmarkDiagnoseManySuccesses measures a 12-success-trace diagnosis
// across the pipeline's operating points: serial, GOMAXPROCS-wide
// fan-out (cache off, isolating the decode+observe fan-out), and the
// cached steady state the network server settles into.
func BenchmarkDiagnoseManySuccesses(b *testing.B) {
	failInst, rep, oks := manySuccessReports(b)
	run := func(workers int, cache bool) func(*testing.B) {
		return func(b *testing.B) {
			srv := core.NewServer(failInst.Mod)
			srv.Workers = workers
			srv.MaxSuccessTraces = len(oks)
			srv.DisableCache = !cache
			if cache {
				if _, err := srv.Diagnose(rep, oks); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Diagnose(rep, oks); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1, false))
	b.Run("parallel", run(0, false))
	b.Run("parallel-cached", run(0, true))
}

// BenchmarkParallelPipelineSpeedup reports the serial/parallel
// wall-clock ratio for the same 12-trace diagnosis — the acceptance
// metric for the fan-out (≥2x with 10+ traces on ≥4 cores; on fewer
// cores the ratio degrades toward 1x by construction).
func BenchmarkParallelPipelineSpeedup(b *testing.B) {
	failInst, rep, oks := manySuccessReports(b)
	measure := func(workers int) time.Duration {
		srv := core.NewServer(failInst.Mod)
		srv.Workers = workers
		srv.MaxSuccessTraces = len(oks)
		srv.DisableCache = true
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Diagnose(rep, oks); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	b.ResetTimer()
	serial := measure(1)
	parallel := measure(0)
	b.ReportMetric(float64(serial)/float64(parallel), "speedup-x")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// BenchmarkObservabilityOverhead prices the metrics layer on the same
// 12-trace diagnosis as BenchmarkDiagnoseManySuccesses: one server
// with per-stage histograms recording, one with them disabled, and
// the relative cost as a metric. The observability acceptance bar is
// <5% overhead.
func BenchmarkObservabilityOverhead(b *testing.B) {
	failInst, rep, oks := manySuccessReports(b)
	measure := func(disabled bool) time.Duration {
		srv := core.NewServer(failInst.Mod)
		srv.MaxSuccessTraces = len(oks)
		srv.DisableObs = disabled
		if _, err := srv.Diagnose(rep, oks); err != nil { // warm the cache
			b.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Diagnose(rep, oks); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	b.ResetTimer()
	off := measure(true)
	on := measure(false)
	b.ReportMetric(100*(float64(on)-float64(off))/float64(off), "overhead-%")
}

// BenchmarkAnalysisCacheSteadyState isolates the points-to cache: the
// same failure diagnosed repeatedly on one server, the network
// server's steady state, where step 4 collapses to a map lookup.
func BenchmarkAnalysisCacheSteadyState(b *testing.B) {
	inst := corpus.ByID("mysql-3").Build(corpus.Variant{Failing: true})
	rep := core.NewClient(inst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("expected failure")
	}
	for _, cached := range []bool{false, true} {
		name := "cache-off"
		if cached {
			name = "cache-on"
		}
		b.Run(name, func(b *testing.B) {
			srv := core.NewServer(inst.Mod)
			srv.DisableCache = !cached
			if _, err := srv.Diagnose(rep, nil); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var ptNS float64
			for i := 0; i < b.N; i++ {
				d, err := srv.Diagnose(rep, nil)
				if err != nil {
					b.Fatal(err)
				}
				ptNS = float64(d.Stats.PointsToTime)
			}
			b.ReportMetric(ptNS, "pts-ns")
		})
	}
}

// --- Ablations (design choices called out in DESIGN.md) -------------------

// BenchmarkAblationPointsToInclusion vs ...Unification: the accuracy/
// speed trade the paper discusses in §4.2.
func BenchmarkAblationPointsToInclusion(b *testing.B) {
	mod := corpus.ByID("mysql-3").Build(corpus.Variant{Failing: true}).Mod
	var sets float64
	for i := 0; i < b.N; i++ {
		a := pointsto.NewAndersen(mod, nil)
		sets = avgPtsSize(mod, a)
	}
	b.ReportMetric(sets, "avg-pts-size")
}

func BenchmarkAblationPointsToUnification(b *testing.B) {
	mod := corpus.ByID("mysql-3").Build(corpus.Variant{Failing: true}).Mod
	var sets float64
	for i := 0; i < b.N; i++ {
		s := pointsto.NewSteensgaard(mod, nil)
		sets = avgPtsSize(mod, s)
	}
	b.ReportMetric(sets, "avg-pts-size")
}

type ptsAnalysis interface {
	PointsTo(v ir.Value) pointsto.ObjSet
}

func avgPtsSize(mod *ir.Module, a ptsAnalysis) float64 {
	var sum, n float64
	mod.Instrs(func(in ir.Instr) {
		if p := ir.AccessedPointer(in); p != nil {
			sum += float64(len(a.PointsTo(p)))
			n++
		}
	})
	if n == 0 {
		return 0
	}
	return sum / n
}

// BenchmarkAblationRanking compares candidate counts with and without
// type-based ranking (§4.3: ranking cuts diagnosis latency 4.6x by
// prioritizing exact-type candidates).
func BenchmarkAblationRanking(b *testing.B) {
	inst := corpus.ByID("sqlite-3").Build(corpus.Variant{Failing: true})
	client := core.NewClient(inst.Mod)
	rep := client.Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("expected failure")
	}
	var rank1, all int
	for i := 0; i < b.N; i++ {
		srv := core.NewServer(inst.Mod)
		d, err := srv.Diagnose(rep, nil)
		if err != nil {
			b.Fatal(err)
		}
		rank1, all = d.Stats.Rank1Candidates, d.Stats.Candidates
	}
	b.ReportMetric(float64(rank1), "rank1")
	b.ReportMetric(float64(all), "candidates")
}

// BenchmarkAblationRingBuffer sweeps the trace ring size: smaller
// rings keep less history (§7's limited-trace discussion).
func BenchmarkAblationRingBuffer(b *testing.B) {
	mod := corpus.Perf("httpd", 2, 20)
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		b.Run(byteSize(size), func(b *testing.B) {
			var captured float64
			for i := 0; i < b.N; i++ {
				cfg := pt.Config{BufBytes: size}
				enc := pt.NewEncoder(cfg)
				if res := vm.Run(mod, vm.Config{Seed: 1, Sink: enc}); res.Failed() {
					b.Fatal(res.Failure)
				}
				snap := enc.Snapshot()
				traces, err := pt.DecodeSnapshot(mod, snap, cfg, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				captured = 0
				for _, tt := range traces {
					captured += float64(len(tt.Instrs))
				}
			}
			b.ReportMetric(captured, "instrs-captured")
		})
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return "1MB"
	case n >= 1<<10:
		return itoa(n>>10) + "KB"
	}
	return itoa(n) + "B"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationTimingFrequency compares decoded timestamp
// uncertainty with CYC packets on (the paper's max-frequency
// configuration) and off (MTC only).
func BenchmarkAblationTimingFrequency(b *testing.B) {
	mod := corpus.Perf("memcached", 2, 10)
	for _, disableCYC := range []bool{false, true} {
		name := "cyc-on"
		if disableCYC {
			name = "mtc-only"
		}
		b.Run(name, func(b *testing.B) {
			var meanUncert float64
			for i := 0; i < b.N; i++ {
				cfg := pt.Config{DisableCYC: disableCYC}
				enc := pt.NewEncoder(cfg)
				if res := vm.Run(mod, vm.Config{Seed: 1, Sink: enc}); res.Failed() {
					b.Fatal(res.Failure)
				}
				traces, err := pt.DecodeSnapshot(mod, enc.Snapshot(), cfg, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				var sum, n float64
				for _, tt := range traces {
					for _, di := range tt.Instrs {
						sum += float64(di.Uncert)
						n++
					}
				}
				meanUncert = sum / n
			}
			b.ReportMetric(meanUncert, "uncert-ns")
		})
	}
}

// BenchmarkAblationSuccessTraces sweeps how many successful traces
// feed statistical diagnosis (the paper's empirically chosen 10x).
func BenchmarkAblationSuccessTraces(b *testing.B) {
	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	failClient := core.NewClient(failInst.Mod)
	rep := failClient.Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("expected failure")
	}
	okClient := core.NewClient(okInst.Mod)
	var okReports []*core.RunReport
	for seed := int64(1); len(okReports) < 10 && seed < 50; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered {
			okReports = append(okReports, r)
		}
	}
	for _, n := range []int{0, 1, 5, 10} {
		b.Run("successes-"+itoa(n), func(b *testing.B) {
			var ambiguous float64
			for i := 0; i < b.N; i++ {
				srv := core.NewServer(failInst.Mod)
				d, err := srv.Diagnose(rep, okReports[:n])
				if err != nil {
					b.Fatal(err)
				}
				ambiguous = topTies(d.Scores)
			}
			b.ReportMetric(ambiguous, "top-F1-ties")
		})
	}
}

// topTies counts the patterns sharing the best F1 — the ambiguity
// that traces from successful executions exist to eliminate: with no
// successes every computed pattern predicts the one failing run
// perfectly.
func topTies(scores []statdiag.Score) float64 {
	if len(scores) == 0 {
		return 0
	}
	n := 0
	for _, s := range scores {
		if s.F1 == scores[0].F1 {
			n++
		}
	}
	return float64(n)
}

// BenchmarkHybridVsWholeProgramAnalysis isolates the scope-restricted
// points-to analysis against the whole-program baseline on the
// largest module.
func BenchmarkHybridVsWholeProgramAnalysis(b *testing.B) {
	inst := corpus.ByID("mysql-1").Build(corpus.Variant{Failing: true})
	client := core.NewClient(inst.Mod)
	rep := client.Run(1, ir.NoPC)
	if !rep.Failed() {
		b.Fatal("expected failure")
	}
	traces, err := pt.DecodeSnapshot(inst.Mod, rep.Snapshot, pt.Config{},
		map[int]ir.PC{rep.Failure.Tid: rep.Failure.PC}, nil)
	if err != nil {
		b.Fatal(err)
	}
	scope, _ := traceproc.Process(traces)
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pointsto.NewAndersen(inst.Mod, scope)
		}
	})
	b.Run("whole-program", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pointsto.NewAndersen(inst.Mod, nil)
		}
	})
}

// --- Extension subsystems --------------------------------------------------

// BenchmarkRaceDetectionOverhead measures the lockset detector's
// virtual-time cost on a throughput workload.
func BenchmarkRaceDetectionOverhead(b *testing.B) {
	mod := corpus.Perf("memcached", 2, 10)
	base := vm.Run(mod, vm.Config{Seed: 1})
	if base.Failed() {
		b.Fatal(base.Failure)
	}
	var races float64
	for i := 0; i < b.N; i++ {
		found, res := racedet.Detect(mod, vm.Config{Seed: 1})
		if res.Failed() {
			b.Fatal(res.Failure)
		}
		races = float64(len(found))
	}
	b.ReportMetric(races, "races")
}

// BenchmarkRecordReplay measures order-only recording plus a full
// replay of the same execution.
func BenchmarkRecordReplay(b *testing.B) {
	mod := corpus.Perf("aget", 2, 8)
	var logged float64
	for i := 0; i < b.N; i++ {
		res, log := replay.Record(mod, vm.Config{Seed: 2}, replay.SharedPCs(mod))
		if res.Failed() {
			b.Fatal(res.Failure)
		}
		if _, err := replay.Replay(mod, vm.Config{Seed: int64(i) + 50}, log); err != nil {
			b.Fatal(err)
		}
		logged = float64(len(log.Events))
	}
	b.ReportMetric(logged, "accesses-logged")
}

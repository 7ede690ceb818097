package pt_test

// BenchmarkTracedRun and BenchmarkTracedRunFailing are the PT-encode
// layer's gated benchmarks, the two traced executions a client makes
// (the VM run with a pt.Driver's encoder as sink and the driver as
// hook):
//   - BenchmarkTracedRun: a triggered run of a corpus bug's success
//     variant plus the snapshot the trigger takes, what a client does
//     for each success trace (step 8 of Figure 2);
//   - BenchmarkTracedRunFailing: an untriggered run of its failing
//     variant plus the failure snapshot (step 1).
//
// scripts/bench.sh records them under -count to feed the
// benchstat-gated CI lane.

import (
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
	"snorlax/internal/vm"
)

func BenchmarkTracedRun(b *testing.B) {
	bug := corpus.ByID("mysql-1")
	if bug == nil {
		b.Fatal("corpus bug mysql-1 not found")
	}
	failMod := bug.Build(corpus.Variant{Failing: true}).Mod
	okMod := bug.Build(corpus.Variant{Failing: false}).Mod

	// Arm the trigger where the failing variant fails, and pick the
	// first success seed that reaches it, as a client session would.
	trigger := ir.NoPC
	for seed := int64(1); seed <= 20 && trigger == ir.NoPC; seed++ {
		if res := vm.Run(failMod, vm.Config{Seed: seed}); res.Failed() {
			trigger = res.Failure.PC
		}
	}
	if trigger == ir.NoPC {
		b.Fatal("mysql-1 did not fail within 20 seeds")
	}
	run := func(seed int64) *pt.Snapshot {
		drv := pt.NewDriver(pt.Config{})
		drv.TriggerPC = trigger
		vm.Run(okMod, vm.Config{Seed: seed, Sink: drv.Enc, Hook: drv})
		return drv.TriggerSnapshot()
	}
	var snap *pt.Snapshot
	seed := int64(1000)
	for snap == nil && seed < 1040 {
		seed++
		snap = run(seed)
	}
	if snap == nil {
		b.Fatal("no success seed reached the trigger")
	}
	traceBytes := 0
	for _, th := range snap.Threads {
		traceBytes += len(th.Data)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run(seed) == nil {
			b.Fatal("trigger did not fire")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(traceBytes), "trace-B")
	b.ReportMetric(float64(len(snap.Threads)), "threads")
}

func BenchmarkTracedRunFailing(b *testing.B) {
	bug := corpus.ByID("mysql-1")
	if bug == nil {
		b.Fatal("corpus bug mysql-1 not found")
	}
	failMod := bug.Build(corpus.Variant{Failing: true}).Mod
	run := func(seed int64) *pt.Snapshot {
		drv := pt.NewDriver(pt.Config{})
		res := vm.Run(failMod, vm.Config{Seed: seed, Sink: drv.Enc, Hook: drv})
		if !res.Failed() {
			return nil
		}
		return drv.FailureSnapshot(res.Time)
	}
	// The first seed that fails, as a client session would find it.
	var snap *pt.Snapshot
	seed := int64(0)
	for snap == nil && seed < 20 {
		seed++
		snap = run(seed)
	}
	if snap == nil {
		b.Fatal("mysql-1 did not fail within 20 seeds")
	}
	traceBytes := 0
	for _, th := range snap.Threads {
		traceBytes += len(th.Data)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if run(seed) == nil {
			b.Fatal("run did not fail")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(traceBytes), "trace-B")
	b.ReportMetric(float64(len(snap.Threads)), "threads")
}

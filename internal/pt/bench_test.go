package pt_test

// BenchmarkTracedRun is the PT-encode layer's gated benchmark: one
// triggered traced execution of a corpus bug — the VM run with a
// pt.Driver attached as sink and hook, plus the snapshot the trigger
// takes — exactly what a client does for each success trace (step 8
// of Figure 2). scripts/bench.sh records it under -count to feed the
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
		vm.Run(okMod, vm.Config{Seed: seed, Sink: drv, Hook: drv})
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

package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"snorlax/internal/shard"
)

// benchmarkFile is the part of BENCHMARK.json the tests check the
// printed metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func testPools() []*tracePool {
	var pools []*tracePool
	for _, p := range loadPrograms() {
		pools = append(pools, &tracePool{prog: p})
	}
	return pools
}

func TestSameSeedSameSchedule(t *testing.T) {
	pools := testPools()
	plans := func(seed int64) ([]int, []plannedCase) {
		rng := rand.New(rand.NewSource(seed))
		return caseOrder(rng, pools, 2*len(pools)), planCollect(rng, collectCases, poolSize)
	}
	o1, p1 := plans(7)
	o2, p2 := plans(7)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("the same seed gave different case orders or agent plans")
	}
	o3, p3 := plans(8)
	if reflect.DeepEqual(o1, o3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds gave identical case orders or agent plans")
	}
}

func TestCaseOrderCoversEveryProgramPerPass(t *testing.T) {
	pools := testPools()
	order := caseOrder(rand.New(rand.NewSource(1)), pools, 3*len(pools))
	for pass := 0; pass < 3; pass++ {
		seen := map[int]bool{}
		for _, p := range order[pass*len(pools) : (pass+1)*len(pools)] {
			seen[p] = true
		}
		if len(seen) != len(pools) {
			t.Fatalf("pass %d covers %d of %d programs", pass, len(seen), len(pools))
		}
	}
}

func TestPlanCollectReportMixIsSeedIndependent(t *testing.T) {
	mix := func(seed int64) map[int]int {
		m := map[int]int{}
		for _, pc := range planCollect(rand.New(rand.NewSource(seed)), collectCases, poolSize) {
			if len(pc.agents) != agentsPerCase {
				t.Fatalf("case has %d agents, want %d", len(pc.agents), agentsPerCase)
			}
			for _, a := range pc.agents {
				if a.reports < 1 || a.reports > maxReports {
					t.Fatalf("report count %d outside [1, %d]", a.reports, maxReports)
				}
				m[a.reports]++
			}
		}
		return m
	}
	a, b := mix(1), mix(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("report mix depends on the seed: %v vs %v", a, b)
	}
	if a[1] == 0 || a[maxReports] == 0 {
		t.Fatalf("report mix lost its heavy tail: %v", a)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted; it has only 9 beyond it")
	}
	xs = append(xs, 100)
	v, err := percentile(xs, 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("median of 19 samples accepted; it has only 9 beyond it")
	}
}

// syntheticRound fakes one finished round, enough for the metric
// assembly code to run.
func syntheticRound(traced *tracer) *roundCtx {
	rc := &roundCtx{tr: traced, ctr: map[string]float64{}, setup: time.Second,
		measured: time.Second, diagnoses: 100, heapEnd: 2 << 20, heapSetup: 1 << 20}
	for i := 0; i < 100; i++ {
		rc.ttd = append(rc.ttd, time.Duration(i+1)*time.Millisecond)
	}
	return rc
}

func TestEveryMetricHasNameAndUnit(t *testing.T) {
	bf := loadBenchmarkFile(t)
	check := func(got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			if !ok {
				t.Errorf("metric %s not printed", w.Name)
				continue
			}
			if m.Unit == "" || m.Unit != w.Unit {
				t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
			}
		}
	}
	plain := []*roundCtx{syntheticRound(nil), syntheticRound(nil)}
	e2e, err := endToEnd(plain)
	if err != nil {
		t.Fatal(err)
	}
	check(e2e, bf.EndToEnd)
	tr := newTracer()
	traced := []*roundCtx{syntheticRound(tr), syntheticRound(tr)}
	for _, w := range bf.Workloads {
		check(layers(w.Name, traced, tr, e2e), bf.PerLayer)
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

// TestSmoke runs one round of every workload and checks that it
// diagnosed correctly and counted its operations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full round of each workload")
	}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			rc := &roundCtx{seed: 3, rng: rand.New(rand.NewSource(3)), tr: newTracer(),
				dir: t.TempDir(), ctr: map[string]float64{}, start: time.Now()}
			if err := w(rc); err != nil {
				t.Fatal(err)
			}
			for _, p := range rc.problems {
				t.Error(p)
			}
			rc.chargeRetries()
			if n := rc.ctr[shard.MetricRouterRetries]; n != 0 {
				t.Errorf("the router retried %v forwards", n)
			}
			if rc.diagnoses == 0 || rc.failed != 0 || rc.attempted < rc.diagnoses {
				t.Fatalf("%d diagnoses, %d/%d operations failed", rc.diagnoses, rc.failed, rc.attempted)
			}
			if len(rc.ttd) != rc.diagnoses || rc.measured <= 0 || rc.setup <= 0 {
				t.Fatalf("%d ttd samples for %d diagnoses, measured %v, setup %v",
					len(rc.ttd), rc.diagnoses, rc.measured, rc.setup)
			}
			if len(rc.tr.spans) == 0 {
				t.Fatal("traced round recorded no spans")
			}
		})
	}
}

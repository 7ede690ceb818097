package snorlax_test

// Observability surface tests for the public API: the metrics
// endpoint a deployment scrapes, the text rendering, and the hermetic
// budget check that the metrics layer stays within its overhead bar.

import (
	"bytes"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	snorlax "snorlax"
	"snorlax/internal/core"
)

func TestPublicMetricsSurface(t *testing.T) {
	failProg := uafProgram(true)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv, err := snorlax.NewServer(failProg, snorlax.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	rd, err := snorlax.Dial("tcp", ln.Addr().String(), failProg)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	failing := failProg.Run(snorlax.RunOptions{Seed: 1})
	if _, err := rd.ReportFailure(failing); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Diagnose(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := srv.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE snorlax_stage_seconds histogram",
		`snorlax_stage_seconds_count{stage="total"} 1`,
		"snorlax_diagnoses_completed_total 1",
		"snorlax_pointsto_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteMetrics output is missing %q", want)
		}
	}

	mux := srv.MetricsMux()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if got := rr.Body.String(); !strings.Contains(got, "snorlax_diagnoses_completed_total 1") {
		t.Error("HTTP /metrics page disagrees with WriteMetrics")
	}
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 200 {
		t.Errorf("GET /debug/pprof/ = %d", rr.Code)
	}
}

// TestObservabilityOverheadBudget checks what the metrics layer costs
// a diagnosis. Everywhere, it requires that stage histograms add no
// heap allocation to the 12-trace diagnosis: a count that does not
// move with the machine's load. Its wall_clock subtest is the hermetic
// form of BenchmarkObservabilityOverhead: the same diagnosis with
// histograms on and off, in interleaved pairs whose median ratio sheds
// scheduler noise (see pairedOverhead), asserting the <5% overhead bar
// the observability layer is designed to. A timing ratio on a shared
// machine also fails for reasons outside the code, so that subtest runs
// only in CI's perf lane (see wallClockBudget).
func TestObservabilityOverheadBudget(t *testing.T) {
	failInst, rep, oks := manySuccessReports(t)
	mkServer := func(disabled bool) *core.Server {
		srv := core.NewServer(failInst.Mod)
		srv.MaxSuccessTraces = len(oks)
		srv.DisableObs = disabled
		if _, err := srv.Diagnose(rep, oks); err != nil { // warm the cache
			t.Fatal(err)
		}
		return srv
	}
	on, off := mkServer(false), mkServer(true)
	allocs := func(srv *core.Server) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := srv.Diagnose(rep, oks); err != nil {
				t.Fatal(err)
			}
		})
	}
	// testing.AllocsPerRun reads the process-wide malloc count, and the
	// runtime allocates on its own after a collection (the cleanup of
	// the unique map that net/netip links in). With the collector off
	// during the two counts, each reads exactly the diagnosis's own
	// allocations.
	allocsOn, allocsOff := func() (float64, float64) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return allocs(on), allocs(off)
	}()
	if allocsOn > allocsOff {
		t.Errorf("a diagnosis with observability on makes %.0f allocations, off %.0f; obs must add none",
			allocsOn, allocsOff)
	}

	t.Run("wall_clock", func(t *testing.T) {
		wallClockBudget(t)
		sample := func(srv *core.Server) time.Duration {
			const iters = 3
			start := time.Now()
			for i := 0; i < iters; i++ {
				if _, err := srv.Diagnose(rep, oks); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start) / iters
		}
		overhead, medOn, medOff := pairedOverhead(40,
			func() time.Duration { return sample(off) },
			func() time.Duration { return sample(on) })
		t.Logf("diagnosis: obs on %v, obs off %v, overhead %.2f%%", medOn, medOff, overhead)
		if overhead > 5 {
			t.Errorf("observability overhead %.2f%% exceeds the 5%% budget (on %v, off %v)",
				overhead, medOn, medOff)
		}
	})
}

// wallClockBudget skips a wall-clock budget assertion unless
// SNORLAX_WALLCLOCK_BUDGETS=1, as CI's perf lane sets it. On a shared
// 2-vCPU machine these ratios read past their bars now and then with
// the code unchanged, so the default test run asserts each budget's
// deterministic proxy instead.
func wallClockBudget(t *testing.T) {
	t.Helper()
	if os.Getenv("SNORLAX_WALLCLOCK_BUDGETS") != "1" {
		t.Skip("wall-clock budget; set SNORLAX_WALLCLOCK_BUDGETS=1 to run it")
	}
}

// pairedOverhead runs n back-to-back sample pairs and returns the
// median of the per-pair overheads, in percent, with the median sample
// of each side for the log. Each pair's two samples share whatever
// else the machine is doing at that moment, so load that comes and
// goes cancels out of the ratio; the median then discards the pairs a
// burst split. Minima do neither: one unusually fast sample on either
// side moves a minimum by 10% or more on a shared machine.
//
// Pairs alternate which side runs first. Under CPU contention the
// second sample of a pair runs a few percent slower than the first
// (it pays for the garbage and cache state the first left behind), so
// a fixed order would add that penalty to one side of every ratio.
//
// Every sample starts from a collected heap. Otherwise, when the GC
// period is a small multiple of a pair, collections land on the same
// side pair after pair and the median reads that side's GC pauses as
// overhead: the 12-trace diagnosis read anywhere from -13% to +18%
// across runs with identical code, and -2% to +3% with GOGC=off.
func pairedOverhead(n int, off, on func() time.Duration) (pct float64, medOn, medOff time.Duration) {
	settled := func(sample func() time.Duration) time.Duration {
		runtime.GC()
		return sample()
	}
	ratios := make([]float64, n)
	ons, offs := make([]time.Duration, n), make([]time.Duration, n)
	for i := range ratios {
		if i%2 == 0 {
			offs[i], ons[i] = settled(off), settled(on)
		} else {
			ons[i], offs[i] = settled(on), settled(off)
		}
		ratios[i] = float64(ons[i]) / float64(offs[i])
	}
	slices.Sort(ratios)
	slices.Sort(ons)
	slices.Sort(offs)
	return 100 * (ratios[n/2] - 1), ons[n/2], offs[n/2]
}

package experiments

import (
	"os"
	"strings"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/pattern"
)

func TestHypothesisTablesCoverCorpus(t *testing.T) {
	t1 := HypothesisTable(pattern.KindDeadlock, 3)
	t2 := HypothesisTable(pattern.KindOrderViolation, 3)
	t3 := HypothesisTable(pattern.KindAtomicityViolation, 3)
	if len(t1) != 14 || len(t2) != 18 || len(t3) != 22 {
		t.Fatalf("table sizes = %d/%d/%d, want 14/18/22", len(t1), len(t2), len(t3))
	}
	for _, r := range t3 {
		if len(r.MeanUS) < 2 {
			t.Errorf("%s: atomicity row needs ΔT1 and ΔT2, got %v", r.Bug, r.MeanUS)
		}
	}
	for _, r := range t2 {
		if len(r.MeanUS) < 1 || r.MeanUS[0] <= 0 {
			t.Errorf("%s: bad order-violation ΔT %v", r.Bug, r.MeanUS)
		}
	}
	text := FormatHypothesisTable("Table 2", t2)
	if !strings.Contains(text, "ΔT1=") || !strings.Contains(text, "µs") {
		t.Errorf("table format: %q", text)
	}
}

func TestHypothesisSummaryShape(t *testing.T) {
	sum := Hypothesis(3)
	if sum.Bugs != 54 {
		t.Fatalf("bugs = %d, want 54", sum.Bugs)
	}
	// The coarse interleaving hypothesis: every gap far above the
	// ~1ns granularity of fine-grained recording. Paper: min 91µs,
	// averages 154–3505µs, ratio ~5 orders of magnitude.
	if sum.MinUS < 60 {
		t.Errorf("min gap = %.1fµs, want >= ~91µs scale", sum.MinUS)
	}
	if sum.MinAvgUS < 80 || sum.MaxAvgUS > 5000 {
		t.Errorf("avg range = [%.0f, %.0f]µs, want within the paper's 154–3505µs scale",
			sum.MinAvgUS, sum.MaxAvgUS)
	}
	if sum.GranularityOrders < 4.5 {
		t.Errorf("granularity ratio = %.1f orders, want ~5", sum.GranularityOrders)
	}
}

func TestAccuracyEvalSet(t *testing.T) {
	rows := Accuracy(corpus.EvalSet())
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Correct || !r.Unique {
			t.Errorf("%s: correct=%v unique=%v", r.Bug, r.Correct, r.Unique)
		}
		if r.OrderingAcc != 100 {
			t.Errorf("%s: A_O = %.1f", r.Bug, r.OrderingAcc)
		}
		if r.FailuresNeeded != 1 {
			t.Errorf("%s: failures = %d", r.Bug, r.FailuresNeeded)
		}
	}
	text := FormatAccuracy(rows)
	if !strings.Contains(text, "accuracy: 11/11 (100%)") {
		t.Errorf("summary: %q", text)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, geoScope, geoRank := Fig7(corpus.EvalSet())
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The remaining set must shrink monotonically.
		for i := 1; i < len(r.Remaining); i++ {
			if r.Remaining[i] > r.Remaining[i-1] {
				t.Errorf("%s: stage %d grew the set: %v", r.Bug, i, r.Remaining)
			}
		}
		var total float64
		for _, c := range r.ContributionPct {
			if c < 0 {
				t.Errorf("%s: negative contribution %v", r.Bug, r.ContributionPct)
			}
			total += c
		}
		if total < 90 || total > 100.5 {
			t.Errorf("%s: contributions sum to %.1f%%", r.Bug, total)
		}
		// Trace processing must dominate (the paper's 87.9%).
		if r.ContributionPct[0] < 50 {
			t.Errorf("%s: trace processing contributes only %.1f%%", r.Bug, r.ContributionPct[0])
		}
	}
	if geoScope < 3 {
		t.Errorf("geo scope reduction = %.1fx, want substantial (paper: 9x)", geoScope)
	}
	if geoRank < 1 {
		t.Errorf("geo rank reduction = %.2fx", geoRank)
	}
	out := FormatFig7(rows, geoScope, geoRank)
	if !strings.Contains(out, "trace processing") {
		t.Errorf("format: %q", out)
	}
}

func TestFig8Shape(t *testing.T) {
	rows, avg := Fig8(2, 14, 2)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	var maxSys string
	var maxPct float64
	for _, r := range rows {
		if r.MeanPct <= 0 || r.MeanPct > 5 {
			t.Errorf("%s: overhead %.2f%% outside sane range", r.System, r.MeanPct)
		}
		if r.PeakPct < r.MeanPct {
			t.Errorf("%s: peak < mean", r.System)
		}
		if r.MeanPct > maxPct {
			maxPct, maxSys = r.MeanPct, r.System
		}
	}
	if avg < 0.3 || avg > 2.0 {
		t.Errorf("average overhead %.2f%%, want ~1%% (paper: 0.97%%)", avg)
	}
	if maxSys != "pbzip2" {
		t.Errorf("highest overhead = %s, want pbzip2 (compute-bound, branch-dense)", maxSys)
	}
	if !strings.Contains(FormatFig8(rows, avg), "average") {
		t.Error("format broken")
	}
}

func TestFig9Shape(t *testing.T) {
	rows := Fig9([]int{2, 8, 32}, 6)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Gist starts higher than Snorlax and degrades much faster.
	if first.GistPct <= first.SnorlaxPct {
		t.Errorf("at 2 threads gist %.2f%% <= snorlax %.2f%%", first.GistPct, first.SnorlaxPct)
	}
	if last.GistPct < 4*last.SnorlaxPct {
		t.Errorf("at 32 threads gist %.2f%% not ≫ snorlax %.2f%%", last.GistPct, last.SnorlaxPct)
	}
	if last.GistPct <= first.GistPct {
		t.Error("gist overhead did not grow with threads")
	}
	if last.SnorlaxPct > 6 {
		t.Errorf("snorlax overhead at 32 threads = %.2f%%, want small", last.SnorlaxPct)
	}
	if !strings.Contains(FormatFig9(rows), "threads") {
		t.Error("format broken")
	}
}

// TestTable4Shape checks Table 4's rows everywhere and the hybrid
// constraint counts, the deterministic measure of scope restriction.
// The speedups are time.Now arithmetic, so their assertions run in the
// wall_clock subtest, only in CI's perf lane
// (SNORLAX_WALLCLOCK_BUDGETS=1).
func TestTable4Shape(t *testing.T) {
	rows, geo := Table4(3)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 systems", len(rows))
	}
	for _, r := range rows {
		if r.HybridConstraints >= r.WholeConstraints {
			t.Errorf("%s: hybrid constraints %d not < whole %d",
				r.System, r.HybridConstraints, r.WholeConstraints)
		}
	}
	if !strings.Contains(FormatTable4(rows, geo), "geometric-mean") {
		t.Error("format broken")
	}

	t.Run("wall_clock", func(t *testing.T) {
		if os.Getenv("SNORLAX_WALLCLOCK_BUDGETS") != "1" {
			t.Skip("wall-clock speedups; set SNORLAX_WALLCLOCK_BUDGETS=1 to run them")
		}
		var mysqlSpeedup, agetSpeedup float64
		for _, r := range rows {
			if r.Speedup < 1 {
				t.Errorf("%s: hybrid slower than whole-program (%.2fx)", r.System, r.Speedup)
			}
			switch r.System {
			case "mysql":
				mysqlSpeedup = r.Speedup
			case "aget":
				agetSpeedup = r.Speedup
			}
		}
		if geo < 2 {
			t.Errorf("geometric-mean speedup %.1fx, want > 2x (paper: 24x)", geo)
		}
		// The paper: bigger programs gain more from scope restriction.
		if mysqlSpeedup <= agetSpeedup {
			t.Errorf("mysql speedup %.1fx <= aget %.1fx; larger programs must gain more",
				mysqlSpeedup, agetSpeedup)
		}
	})
}

func TestLatencyShape(t *testing.T) {
	r := Latency()
	if len(r.PerBugRecurrences) == 0 {
		t.Fatal("no bugs measured")
	}
	if r.MeanRecurrences <= 1 {
		t.Errorf("mean recurrences = %.2f, Gist must need > 1", r.MeanRecurrences)
	}
	var chromium LatencyModelRow
	for _, row := range r.Model {
		if row.OpenBugs == 684 {
			chromium = row
		}
		if row.SpeedupOverGist < 1 {
			t.Errorf("speedup < 1 at %d bugs", row.OpenBugs)
		}
	}
	if chromium.OpenBugs != 684 {
		t.Fatal("no Chromium scenario")
	}
	if chromium.SpeedupOverGist < 500 {
		t.Errorf("chromium speedup = %.0fx, want hundreds-to-thousands (paper: 2523x)", chromium.SpeedupOverGist)
	}
	if !strings.Contains(FormatLatency(r), "Chromium") {
		t.Error("format broken")
	}
}

func TestTraceStatsShape(t *testing.T) {
	r := TraceStats("mysql")
	if r.Threads < 2 {
		t.Fatalf("threads = %d", r.Threads)
	}
	if r.ControlEventsPerThread < 1000 {
		t.Errorf("captured control events per thread = %d, want thousands (paper: ~6764)",
			r.ControlEventsPerThread)
	}
	if r.TimingPacketsPerThread == 0 {
		t.Fatal("no timing packets captured")
	}
	// Timing packets occupy a substantial share of the buffer (paper:
	// 49%).
	if r.TimingFraction < 0.15 || r.TimingFraction > 0.85 {
		t.Errorf("timing fraction = %.2f", r.TimingFraction)
	}
	if !strings.Contains(FormatTraceStats(r), "timing packets occupy") {
		t.Error("format broken")
	}
}

package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pointsto"
	"snorlax/internal/pt"
	"snorlax/internal/traceproc"
	"snorlax/internal/vm"
)

// Table4Row compares the hybrid (scope-restricted) server-side
// analysis against a whole-program static analysis for one system.
type Table4Row struct {
	System string
	Bug    string
	// HybridTime is the full server-side analysis per received trace;
	// WholeTime is the pure static points-to analysis on the whole
	// module.
	HybridTime, WholeTime time.Duration
	// Speedup is WholeTime / hybrid points-to time.
	Speedup float64
	// HybridConstraints/WholeConstraints compare analysis work in a
	// wall-clock-independent way.
	HybridConstraints, WholeConstraints int
}

// Table4 picks one evaluated bug per C/C++ system and measures both
// analyses. reps repeats the timed sections to stabilize wall-clock
// numbers on a busy host.
func Table4(reps int) ([]Table4Row, float64) {
	perSystem := map[string]*corpus.Bug{}
	for _, b := range corpus.EvalSet() {
		if _, ok := perSystem[b.System]; !ok {
			perSystem[b.System] = b
		}
	}
	var rows []Table4Row
	var logSum float64
	for _, sys := range corpus.PerfSystems() {
		b := perSystem[sys]
		if b == nil {
			continue
		}
		failInst := b.Build(corpus.Variant{Failing: true})
		client := core.NewClient(failInst.Mod)
		rep := client.Run(1, ir.NoPC)
		if !rep.Failed() {
			continue
		}
		stop := map[int]ir.PC{rep.Failure.Tid: rep.Failure.PC}
		traces, err := pt.DecodeSnapshot(failInst.Mod, rep.Snapshot, pt.Config{}, stop, nil)
		if err != nil {
			continue
		}
		scope, _ := traceproc.Process(traces)

		var hybridPts, whole time.Duration
		var hybridC, wholeC int
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			h := pointsto.NewAndersen(failInst.Mod, scope)
			hybridPts += time.Since(t0)
			t0 = time.Now()
			w := pointsto.NewAndersen(failInst.Mod, nil)
			whole += time.Since(t0)
			hybridC, wholeC = h.Constraints(), w.Constraints()
		}
		hybridPts /= time.Duration(reps)
		whole /= time.Duration(reps)

		// The full hybrid pipeline time for one trace (steps 2–7).
		srv := core.NewServer(failInst.Mod)
		d, err := srv.Diagnose(rep, nil)
		if err != nil {
			continue
		}
		speedup := float64(whole) / math.Max(float64(hybridPts), 1)
		rows = append(rows, Table4Row{
			System:            sys,
			Bug:               b.ID,
			HybridTime:        d.Stats.TotalTime,
			WholeTime:         whole,
			Speedup:           speedup,
			HybridConstraints: hybridC,
			WholeConstraints:  wholeC,
		})
		logSum += math.Log(speedup)
	}
	geo := 0.0
	if len(rows) > 0 {
		geo = math.Exp(logSum / float64(len(rows)))
	}
	return rows, geo
}

// FormatTable4 renders the analysis-time comparison.
func FormatTable4(rows []Table4Row, geo float64) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-14s hybrid %-10v whole-program %-10v speedup %6.1fx  constraints %d vs %d\n",
			r.System, r.HybridTime.Round(time.Microsecond), r.WholeTime.Round(time.Microsecond),
			r.Speedup, r.HybridConstraints, r.WholeConstraints)
	}
	fmt.Fprintf(&sb, "  geometric-mean points-to speedup %.1fx (paper: 24x; larger programs gain more)\n", geo)
	return sb.String()
}

// TraceStatsResult reports what the per-thread 64 KB ring buffers
// capture on a realistic workload (§5/§6: the paper reports ~6764
// control events and ~6695 timing packets per thread, timing ≈49% of
// buffer bytes).
type TraceStatsResult struct {
	System string
	// Threads is the number of traced threads.
	Threads int
	// ControlEventsPerThread and TimingPacketsPerThread average over
	// the captured rings.
	ControlEventsPerThread int64
	TimingPacketsPerThread int64
	// TimingFraction is the share of trace bytes spent on timing.
	TimingFraction float64
	// AnyWrapped reports that at least one ring overwrote history —
	// the normal production state for long-running programs.
	AnyWrapped bool
	// PacketsByKind tallies the captured packets across threads.
	PacketsByKind map[pt.PacketKind]int64
}

// TraceStats runs a system's throughput workload under the tracer and
// inspects what survives in the ring buffers.
func TraceStats(system string) TraceStatsResult {
	mod := corpus.Perf(system, 2, 60)
	enc := pt.NewEncoder(pt.Config{})
	vm.Run(mod, vm.Config{Seed: 1, Sink: enc})
	snap := enc.Snapshot()

	out := TraceStatsResult{
		System:         system,
		Threads:        len(snap.Threads),
		TimingFraction: enc.Stats().TimingFraction(),
		PacketsByKind:  map[pt.PacketKind]int64{},
	}
	var control, timing int64
	for _, tid := range snap.Tids() {
		st := snap.Threads[tid]
		if st.Wrapped {
			out.AnyWrapped = true
		}
		counts, events, err := pt.CountPackets(st)
		if err != nil {
			continue
		}
		control += events
		timing += counts[pt.KindMTC] + counts[pt.KindCYC]
		for k, n := range counts {
			out.PacketsByKind[k] += n
		}
	}
	if out.Threads > 0 {
		out.ControlEventsPerThread = control / int64(out.Threads)
		out.TimingPacketsPerThread = timing / int64(out.Threads)
	}
	return out
}

// FormatTraceStats renders the packet-mix report.
func FormatTraceStats(r TraceStatsResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %s workload, %d traced threads (64 KB rings, wrapped=%v)\n",
		r.System, r.Threads, r.AnyWrapped)
	fmt.Fprintf(&sb, "  captured per thread: %d control events (paper: ~6764), %d timing packets (paper: ~6695)\n",
		r.ControlEventsPerThread, r.TimingPacketsPerThread)
	fmt.Fprintf(&sb, "  timing packets occupy %.0f%% of trace bytes (paper: 49%%)\n", 100*r.TimingFraction)
	for _, k := range []pt.PacketKind{pt.KindPSB, pt.KindTNT, pt.KindTIP, pt.KindMTC, pt.KindCYC} {
		fmt.Fprintf(&sb, "    %-4s %6d\n", k, r.PacketsByKind[k])
	}
	return sb.String()
}

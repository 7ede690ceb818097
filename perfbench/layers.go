package main

import (
	"fmt"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/shard"
	"snorlax/internal/store"
)

// stage reads one pipeline stage's histogram sum (seconds) and count
// out of a counter delta map.
func stage(ctr map[string]float64, st obs.Stage) (sum, count float64) {
	key := obs.StageSecondsName + "{stage=" + st.String() + "}"
	return ctr[key+".sum"], ctr[key+".count"]
}

// rpcNames are the client RPC spans.
var rpcNames = []string{rpcRegister, rpcFailure, rpcDirectives, rpcUpload, rpcPublish, rpcFetch}

// blockingSteps names, per workload, the spans on a case's blocking
// path whose self times the reconciliation adds up.
var blockingSteps = map[string]map[string]bool{
	"fleet-saturate": {rpcFailure: true, rpcUpload: true, rpcPublish: true, rpcFetch: true},
	"local-session":  {spanClientRun: true, spanDiagnose: true},
	// The lead agent's calls (the other agents overlap it); the
	// remainder is its poll interval and queueing behind other agents.
	"fleet-collect": {rpcFailure: true, rpcDirectives: true, rpcUpload: true, rpcPublish: true, rpcFetch: true},
}

// layers computes the per-layer metrics from the traced rounds, the
// reconciliation of the blocking steps against the untraced median
// time to diagnosis, and the tracing overhead.
func layers(name string, traced []*roundCtx, tr *tracer, e2e map[string]metric) map[string]metric {
	ctr := map[string]float64{}
	var diags, reports, patterns, uploaded, accepted, polls, useful float64
	var measured time.Duration
	var alloc, gcCPU, usedCPU float64
	var late []float64
	for _, rc := range traced {
		for k, v := range rc.ctr {
			ctr[k] += v
		}
		diags += float64(rc.diagnoses)
		reports += float64(rc.reports)
		patterns += float64(rc.patterns)
		uploaded += float64(rc.uploaded)
		accepted += float64(rc.accepted)
		polls += float64(rc.polls)
		useful += float64(rc.usefulPolls)
		measured += rc.measured
		alloc += rc.allocBytes
		gcCPU += rc.gcCPU
		usedCPU += rc.usedCPU
		late = append(late, rc.late...)
	}
	meas := tr.byName("measure")
	all := tr.byName("")
	med := func(m map[string]*spanStats, n string) float64 {
		if st := m[n]; st != nil {
			return median(st.times)
		}
		return 0
	}
	// pick prefers a call's measured-phase spans and falls back to all
	// phases for calls a workload only makes in set-up (registration,
	// parsing), so a restart's store.Open is not diluted by the empty
	// stores opened at tier start.
	pick := func(n string) map[string]*spanStats {
		if meas[n] != nil {
			return meas
		}
		return all
	}
	callMed := func(n string) float64 { return med(pick(n), n) }
	total := func(m map[string]*spanStats, n string) (time.Duration, float64) {
		if st := m[n]; st != nil {
			return st.total, float64(st.count)
		}
		return 0, 0
	}
	pct := func(xs []float64, q float64) float64 {
		v, err := percentile(xs, q)
		if err != nil {
			return median(xs) // fewer samples than the rule needs: no tail to report
		}
		return v
	}
	perStage := func(st obs.Stage) float64 {
		sum, n := stage(ctr, st)
		return ratio(sum*1000, n)
	}

	m := map[string]metric{}
	put := func(k string, v float64, unit string) { m[k] = metric{v, unit} }

	put("gen.late_p50_ms", pct(late, 0.5), "ms")
	put("gen.late_p90_ms", pct(late, 0.9), "ms")

	vmTime, vmRuns := total(meas, spanClientRun)
	put("vm.run_ms_per_diag", ratio(ms(vmTime), diags), "ms")
	put("vm.runs_per_diag", ratio(vmRuns, diags), "count")
	var steps, runSecs float64
	if st := all[spanClientRun]; st != nil {
		steps, runSecs = float64(st.n), st.total.Seconds()
	}
	put("vm.msteps_per_s", ratio(steps/1e6, runSecs), "Msteps/s")

	put("core.diagnose_ms", perStage(obs.StageTotal), "ms")
	put("core.observe_ms_per_diag", perStage(obs.StageObserve), "ms")
	put("pt.decode_ms_per_diag", perStage(obs.StageDecode), "ms")
	put("traceproc.ms_per_diag", perStage(obs.StageTraceProc), "ms")
	put("pointsto.ms_per_diag", perStage(obs.StagePointsTo), "ms")
	hits, misses := ctr[core.MetricCacheHits], ctr[core.MetricCacheMisses]
	put("pointsto.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("ranking.ms_per_diag", perStage(obs.StageRank), "ms")
	put("pattern.ms_per_diag", perStage(obs.StagePattern), "ms")
	put("pattern.patterns_per_diag", ratio(patterns, reports), "count")
	put("statdiag.ms_per_diag", perStage(obs.StageStatDiag), "ms")

	put("ir.parse_ms", callMed(spanParse), "ms")

	put("proto.register_ms", callMed(rpcRegister), "ms")
	put("proto.preregister_ms", callMed(spanRegister), "ms")
	put("proto.failure_ms", med(meas, rpcFailure), "ms")
	put("proto.directives_ms", med(meas, rpcDirectives), "ms")
	put("proto.upload_ms", med(meas, rpcUpload), "ms")
	put("proto.publish_ms", med(meas, rpcPublish), "ms")
	put("proto.fetch_ms", med(meas, rpcFetch), "ms")
	var rpcs float64
	for _, n := range rpcNames {
		_, c := total(meas, n)
		rpcs += c
	}
	put("proto.rpcs_per_diag", ratio(rpcs, diags), "count")
	put("proto.upload_accept_ratio", ratio(accepted, uploaded), "ratio")
	put("proto.poll_useful_ratio", ratio(useful, polls), "ratio")
	put("wire.bytes_per_diag", ratio(ctr[proto.MetricRxBytes]+ctr[proto.MetricTxBytes], diags), "bytes")

	put("shard.forwards_per_diag", ratio(ctr[shard.MetricRouterForwards], diags), "count")
	put("shard.retries", ctr[shard.MetricRouterRetries], "count")

	put("store.appends_per_diag", ratio(ctr[store.MetricStoreAppendedRecords], diags), "count")
	put("store.bytes_per_diag", ratio(ctr[store.MetricStoreAppendedBytes], diags), "bytes")
	put("store.snapshots", ctr[store.MetricStoreSnapshots], "count")
	put("store.fsyncs_per_s", ratio(ctr[store.MetricStoreFsyncs], measured.Seconds()), "1/s")
	put("store.open_ms", callMed(spanStoreOpen), "ms")
	replayed := 0.0
	if st := pick(spanStoreOpen)[spanStoreOpen]; st != nil {
		replayed = ratio(float64(st.n), float64(st.count))
	}
	put("store.replayed_records", replayed, "count")
	put("proto.restore_ms", callMed(spanRestore), "ms")

	put("go.alloc_mb_per_diag", ratio(alloc/(1<<20), diags), "MB")
	put("go.gc_cpu_fraction", ratio(gcCPU, usedCPU), "ratio")

	// Reconciliation: the blocking steps' self time against the
	// untraced median time to diagnosis. A restart's cases all wait for
	// the same store.Open and Restore (the two shards run them side by
	// side), then for their fetch.
	blocking := median(tr.caseChains("measure", blockingSteps[name], name == "fleet-collect"))
	if name == "fleet-restart" {
		blocking = m["store.open_ms"].Value + m["proto.restore_ms"].Value + m["proto.fetch_ms"].Value
	}
	ttd := e2e["ttd_p50_ms"].Value
	put("recon.blocking_ms", blocking, "ms")
	put("recon.ttd_p50_ms", ttd, "ms")
	put("recon.unexplained_ms", ttd-blocking, "ms")

	// Tracing overhead: the traced rounds' median time to diagnosis over
	// the untraced rounds' of the same run. Latency, not throughput: in
	// the open loop throughput is the arrival rate either way.
	tracedTTD := median(ttdSamples(traced))
	put("trace.overhead_pct", 100*(ratio(tracedTTD, ttd)-1), "%")

	fmt.Printf("per-layer metrics over %d traced rounds (%.0f diagnoses, %.3f s measured):\n", len(traced), diags, measured.Seconds())
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("reconciliation (%s): blocking steps %.3f ms + unexplained %.3f ms = ttd_p50 %.3f ms (untraced)\n",
		name, blocking, ttd-blocking, ttd)
	fmt.Printf("unexplained %.3f ms\n", ttd-blocking)
	fmt.Printf("tracing overhead %.2f%% (ttd_p50 untraced %.3f ms, traced %.3f ms)\n",
		m["trace.overhead_pct"].Value, ttd, tracedTTD)
	return m
}

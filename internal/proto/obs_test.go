package proto

// Metrics-consistency suite: the server's observable surfaces — the
// ServerStatus reply, the metrics registry, and the Prometheus text
// rendering — must agree with each other and with what actually
// happened on the wire. Each test drives a real session (diagnoses,
// injected transport faults, corrupt and oversize uploads) and then
// cross-checks every counter against its registry counterpart.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/faultnet"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/pt"
	"snorlax/internal/store"
)

// diagnosisSession gathers one failing run and n successful triggered
// runs of bug, ready to replay against a server.
func diagnosisSession(t *testing.T, bugID string, n int) (*corpus.Instance, *core.RunReport, []*pt.Snapshot) {
	t.Helper()
	bug := corpus.ByID(bugID)
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	okClient := core.NewClient(bug.Build(corpus.Variant{Failing: false}).Mod)
	var uploads []*pt.Snapshot
	for seed := int64(1); len(uploads) < n && seed < 100; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered {
			uploads = append(uploads, r.Snapshot)
		}
	}
	if len(uploads) < n {
		t.Fatalf("gathered %d/%d success traces", len(uploads), n)
	}
	return failInst, rep, uploads
}

// runSession replays a prepared session of mod over rc.
func runSession(t *testing.T, rc *RetryClient, mod *ir.Module, rep *core.RunReport, uploads []*pt.Snapshot) *core.Diagnosis {
	t.Helper()
	if _, err := rc.ReportFailure(mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	for i, snap := range uploads {
		if err := rc.SendSuccess(snap); err != nil {
			t.Fatalf("SendSuccess %d: %v", i, err)
		}
	}
	d, err := rc.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// corruptRing fills every thread ring with 0xFF: a perfectly valid
// wire message that no packet decoder accepts, so degraded-mode
// diagnosis must drop (and count) it.
func corruptRing(snap *pt.Snapshot) *pt.Snapshot {
	out := &pt.Snapshot{Threads: make(map[int]pt.SnapshotThread, len(snap.Threads)), Time: snap.Time}
	for tid, th := range snap.Threads {
		data := make([]byte, len(th.Data))
		for i := range data {
			data[i] = 0xFF
		}
		out.Threads[tid] = pt.SnapshotThread{Data: data, Wrapped: th.Wrapped}
	}
	return out
}

func findMetric(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) *obs.Metric {
	t.Helper()
	m := reg.Find(name, labels...)
	if m == nil {
		t.Fatalf("metric %s%v not registered", name, labels)
	}
	return m
}

func counterVal(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) uint64 {
	t.Helper()
	return findMetric(t, reg, name, labels...).Counter.Value()
}

func gaugeVal(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) int64 {
	t.Helper()
	return findMetric(t, reg, name, labels...).Gauge.Value()
}

// assertStatusMatchesRegistry is the single-source-of-truth check:
// every ServerStatus field must equal the registry series it claims to
// be a view of. Call it only on a quiesced server (no in-flight
// requests), since the two reads are not atomic.
func assertStatusMatchesRegistry(t *testing.T, srv *Server) {
	t.Helper()
	st := srv.Status()
	reg := srv.Metrics()
	checks := []struct {
		field     string
		got, want interface{}
	}{
		{"OpenConns", st.OpenConns, gaugeVal(t, reg, MetricOpenConns)},
		{"ActiveDiagnoses", st.ActiveDiagnoses, gaugeVal(t, reg, MetricActiveDiagnoses)},
		{"QueuedDiagnoses", st.QueuedDiagnoses, gaugeVal(t, reg, MetricQueuedDiagnoses)},
		{"CompletedDiagnoses", st.CompletedDiagnoses, counterVal(t, reg, MetricDiagnosesCompleted)},
		{"FailedDiagnoses", st.FailedDiagnoses, counterVal(t, reg, MetricDiagnosesFailed)},
		{"MaxConcurrent", int64(st.MaxConcurrent), gaugeVal(t, reg, MetricMaxConcurrent)},
		{"Workers", int64(st.Workers), gaugeVal(t, reg, MetricWorkers)},
		{"CacheHits", st.CacheHits, counterVal(t, reg, core.MetricCacheHits)},
		{"CacheMisses", st.CacheMisses, counterVal(t, reg, core.MetricCacheMisses)},
		{"DroppedSuccesses", st.DroppedSuccesses, counterVal(t, reg, core.MetricDroppedSuccesses)},
		{"DeadlineDrops", st.DeadlineDrops, counterVal(t, reg, MetricDeadlineDrops)},
		{"OversizeRejects", st.OversizeRejects, counterVal(t, reg, MetricOversizeRejects)},
		{"PanicsRecovered", st.PanicsRecovered, counterVal(t, reg, MetricPanicsRecovered)},
		{"DiagnoseTime", st.DiagnoseTime,
			findMetric(t, reg, MetricDiagnoseSeconds).Histogram.SumDuration()},
	}
	for _, c := range checks {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("ServerStatus.%s = %v, but the registry says %v", c.field, c.got, c.want)
		}
	}
}

// stageCounts returns every pipeline stage histogram's sample count.
func stageCounts(t *testing.T, reg *obs.Registry) map[string]uint64 {
	t.Helper()
	counts := make(map[string]uint64, len(obs.StageNames))
	for _, name := range obs.StageNames {
		counts[name] = findMetric(t, reg, obs.StageSecondsName, obs.L("stage", name)).Histogram.Count()
	}
	return counts
}

// TestMetricsConsistencyEndToEnd drives a full diagnosis — including
// one corrupt success upload — over TCP and cross-checks every
// observable surface: status-vs-registry equality, stage histogram
// counts in lockstep with the diagnosis count, per-kind request
// counts, and nonzero byte accounting.
func TestMetricsConsistencyEndToEnd(t *testing.T) {
	failInst, rep, uploads := diagnosisSession(t, "pbzip2-1", 4)
	uploads[2] = corruptRing(uploads[2])
	addr, srv := startServerHandle(t, failInst.Mod)
	if _, err := srv.RegisterProgram(failInst.Mod); err != nil {
		t.Fatal(err)
	}

	conn := dialSession(t, addr)
	d := runSession(t, conn, failInst.Mod, rep, uploads)
	if d.Stats.DroppedSuccesses != 1 {
		t.Fatalf("DroppedSuccesses = %d, want 1", d.Stats.DroppedSuccesses)
	}
	if _, err := conn.Status(); err != nil { // exercise the "status" request kind too
		t.Fatal(err)
	}

	reg := srv.Metrics()
	if got := counterVal(t, reg, core.MetricDiagnoses); got != 1 {
		t.Errorf("%s = %d, want 1", core.MetricDiagnoses, got)
	}
	for name, count := range stageCounts(t, reg) {
		if count != 1 {
			t.Errorf("stage %q histogram count = %d, want 1 (stages must move in lockstep with diagnoses)",
				name, count)
		}
	}
	if got := counterVal(t, reg, core.MetricSuccessTraces); got != 3 {
		t.Errorf("%s = %d, want 3 (4 uploads, 1 corrupt)", core.MetricSuccessTraces, got)
	}
	if got := counterVal(t, reg, core.MetricDroppedSuccesses); got != 1 {
		t.Errorf("%s = %d, want 1", core.MetricDroppedSuccesses, got)
	}
	for _, kind := range []struct {
		kind string
		want uint64
	}{{"fleet-failure", 1}, {"batch", 4}, {"publish", 1}, {"status", 1}, {"register", 0}} {
		if got := counterVal(t, reg, MetricRequests, obs.L("kind", kind.kind)); got != kind.want {
			t.Errorf("requests{kind=%q} = %d, want %d", kind.kind, got, kind.want)
		}
	}
	if rx := counterVal(t, reg, MetricRxBytes); rx == 0 {
		t.Error("rx_bytes = 0 after a full session")
	}
	if tx := counterVal(t, reg, MetricTxBytes); tx == 0 {
		t.Error("tx_bytes = 0 after a full session")
	}
	// Queue-depth gauges must return to zero once quiescent.
	if q := gaugeVal(t, reg, core.MetricObserveQueueDepth); q != 0 {
		t.Errorf("observe queue depth = %d after quiesce, want 0", q)
	}
	if q := gaugeVal(t, reg, core.MetricObserveInflight); q != 0 {
		t.Errorf("observe inflight = %d after quiesce, want 0", q)
	}
	assertStatusMatchesRegistry(t, srv)
}

// TestCorruptFailingRingFailsDiagnosis pins where a malformed failing
// ring is caught: ingest is structural, so the report is admitted, and
// the diagnosis that decodes it fails and is counted as failed.
func TestCorruptFailingRingFailsDiagnosis(t *testing.T) {
	failInst, rep, uploads := diagnosisSession(t, "pbzip2-1", 1)
	addr, srv := startServerHandle(t, failInst.Mod)
	if _, err := srv.RegisterProgram(failInst.Mod); err != nil {
		t.Fatal(err)
	}

	conn := dialSession(t, addr)
	if _, err := conn.ReportFailure(failInst.Mod, rep.Failure, corruptRing(rep.Snapshot)); err != nil {
		t.Fatalf("a corrupt failing ring was refused at ingest: %v", err)
	}
	if err := conn.SendSuccess(uploads[0]); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Diagnose()
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "decoding failing trace") {
		t.Fatalf("Diagnose over a corrupt failing ring = %v, want a server error decoding the failing trace", err)
	}
	if st := srv.Status(); st.FailedDiagnoses != 1 || st.CompletedDiagnoses != 0 {
		t.Errorf("FailedDiagnoses = %d, CompletedDiagnoses = %d; want 1 and 0",
			st.FailedDiagnoses, st.CompletedDiagnoses)
	}
	assertStatusMatchesRegistry(t, srv)
}

// TestMetricsConsistencyUnderFaults replays the session through a
// seeded fault injector with a retrying client: after convergence the
// status/registry invariant must still hold, and the protocol-error
// counters must reflect exactly one completed diagnosis regardless of
// how many transport retries it took.
func TestMetricsConsistencyUnderFaults(t *testing.T) {
	failInst, rep, uploads := diagnosisSession(t, "pbzip2-1", 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	inj := faultnet.New(faultnet.Config{
		Seed: 1, FaultEvery: 2, MaxFaults: 6, Stall: time.Millisecond})
	srv := NewServer(core.NewServer(failInst.Mod))
	srv.IdleTimeout = 5 * time.Second
	srv.WriteTimeout = 5 * time.Second
	go srv.Serve(inj.Listener(ln))

	addr := ln.Addr().String()
	rc := NewRetryClient(
		inj.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) }),
		RetryConfig{MaxAttempts: 16, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
	defer rc.Close()
	runSession(t, rc, failInst.Mod, rep, uploads)

	if inj.Stats().Total() == 0 {
		t.Error("the fault schedule never fired; the test proved nothing")
	}
	reg := srv.Metrics()
	if got := counterVal(t, reg, MetricDiagnosesCompleted); got != 1 {
		t.Errorf("completed diagnoses = %d through chaos, want exactly 1", got)
	}
	for name, count := range stageCounts(t, reg) {
		if count != 1 {
			t.Errorf("stage %q histogram count = %d under faults, want 1", name, count)
		}
	}
	assertStatusMatchesRegistry(t, srv)
}

// TestOversizeRejectCounted uploads a snapshot past a tiny byte cap
// and checks the rejection lands in the registry and in ServerStatus
// as the same count.
func TestOversizeRejectCounted(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	rep := core.NewClient(inst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(core.NewServer(inst.Mod))
	srv.MaxSnapshotBytes = 16
	go srv.Serve(ln)
	conn := dialSession(t, ln.Addr().String())

	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err == nil ||
		!strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversize upload error = %v", err)
	}
	if got := counterVal(t, srv.Metrics(), MetricOversizeRejects); got != 1 {
		t.Errorf("oversize rejects = %d, want 1", got)
	}
	if st := srv.Status(); st.OversizeRejects != 1 {
		t.Errorf("ServerStatus.OversizeRejects = %d, want 1", st.OversizeRejects)
	}
	assertStatusMatchesRegistry(t, srv)
}

// TestStageHistogramsTrackRepeatedDiagnoses diagnoses one case per
// round — a different program's each time — on one connection: all
// eight stage histograms and the diagnosis counters must advance
// together, cumulative diagnose time must be monotone, and asking
// again for a published case's report runs no diagnosis.
func TestStageHistogramsTrackRepeatedDiagnoses(t *testing.T) {
	bugs := []string{"aget-1", "pbzip2-1", "memcached-2"}
	inst, _ := reproduce(t, bugs[0])
	addr, srv := startServerHandle(t, inst.Mod)
	conn := dialSession(t, addr)
	rounds := len(bugs)
	var lastTime time.Duration
	for i, bug := range bugs {
		inst, rep := reproduce(t, bug)
		if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
			t.Fatal(err)
		}
		for again := 0; again < 2; again++ {
			if _, err := conn.Diagnose(); err != nil {
				t.Fatal(err)
			}
		}
		st := srv.Status()
		if st.CompletedDiagnoses != uint64(i+1) {
			t.Fatalf("round %d: completed = %d", i+1, st.CompletedDiagnoses)
		}
		if st.DiagnoseTime < lastTime {
			t.Errorf("round %d: DiagnoseTime went backwards (%v -> %v)", i+1, lastTime, st.DiagnoseTime)
		}
		lastTime = st.DiagnoseTime
	}
	reg := srv.Metrics()
	for name, count := range stageCounts(t, reg) {
		if count != uint64(rounds) {
			t.Errorf("stage %q histogram count = %d, want %d", name, count, rounds)
		}
	}
	if got := counterVal(t, reg, core.MetricDiagnoses); got != uint64(rounds) {
		t.Errorf("core diagnoses counter = %d, want %d", got, rounds)
	}
	if got := findMetric(t, reg, MetricDiagnoseSeconds).Histogram.Count(); got != uint64(rounds) {
		t.Errorf("diagnose_seconds count = %d, want %d", got, rounds)
	}
	// Each round is a different program: one cold points-to solve each.
	if st := srv.Status(); st.CacheMisses != uint64(rounds) || st.CacheHits != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 0/%d", st.CacheHits, st.CacheMisses, rounds)
	}
	assertStatusMatchesRegistry(t, srv)
}

// seriesRE matches one exposition sample line: name, optional labels,
// value.
var seriesRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)

// histKey canonicalizes a bucket series' identity: family plus all
// labels except le.
func histKey(family, labels string) string {
	var keep []string
	for _, kv := range strings.Split(labels, ",") {
		if kv != "" && !strings.HasPrefix(kv, `le="`) {
			keep = append(keep, kv)
		}
	}
	return family + "{" + strings.Join(keep, ",") + "}"
}

// validateExposition parses a Prometheus text page and enforces the
// format invariants every scraper relies on: HELP/TYPE exactly once
// per family, every sample line well-formed with a TYPE, bucket
// series cumulative with ascending le ending at +Inf, and the +Inf
// bucket equal to the _count series.
func validateExposition(t *testing.T, text string) {
	t.Helper()
	helpSeen := map[string]int{}
	typeOf := map[string]string{}
	type histState struct {
		les, cum         []float64
		count, sum       float64
		hasCount, hasSum bool
	}
	hists := map[string]*histState{}
	histOf := func(fam, labels string) *histState {
		k := histKey(fam, labels)
		if hists[k] == nil {
			hists[k] = &histState{}
		}
		return hists[k]
	}

	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			helpSeen[parts[0]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Errorf("malformed TYPE line: %q", line)
				continue
			}
			if _, dup := typeOf[parts[0]]; dup {
				t.Errorf("family %s has more than one TYPE line", parts[0])
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("family %s has unknown type %q", parts[0], parts[1])
			}
			typeOf[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line: %q", line)
			continue
		}
		m := seriesRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Errorf("sample %s has unparseable value %q", name, valStr)
			continue
		}
		family := name
		switch {
		case strings.HasSuffix(name, "_bucket") && typeOf[strings.TrimSuffix(name, "_bucket")] == "histogram":
			family = strings.TrimSuffix(name, "_bucket")
			le := ""
			for _, kv := range strings.Split(labels, ",") {
				if strings.HasPrefix(kv, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
				}
			}
			leV, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("bucket %q has unparseable le %q", line, le)
				continue
			}
			h := histOf(family, labels)
			h.les = append(h.les, leV)
			h.cum = append(h.cum, val)
		case strings.HasSuffix(name, "_count") && typeOf[strings.TrimSuffix(name, "_count")] == "histogram":
			family = strings.TrimSuffix(name, "_count")
			h := histOf(family, labels)
			h.count, h.hasCount = val, true
		case strings.HasSuffix(name, "_sum") && typeOf[strings.TrimSuffix(name, "_sum")] == "histogram":
			family = strings.TrimSuffix(name, "_sum")
			h := histOf(family, labels)
			h.sum, h.hasSum = val, true
		}
		if _, ok := typeOf[family]; !ok {
			t.Errorf("sample %s appears before/without a TYPE for family %s", name, family)
		}
	}

	for fam, n := range helpSeen {
		if n != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", fam, n)
		}
		if _, ok := typeOf[fam]; !ok {
			t.Errorf("family %s has HELP but no TYPE", fam)
		}
	}
	if len(hists) == 0 {
		t.Error("no histogram series found on the page")
	}
	for key, h := range hists {
		if !h.hasCount || !h.hasSum {
			t.Errorf("histogram %s is missing _count or _sum", key)
			continue
		}
		if len(h.les) == 0 || !isInf(h.les[len(h.les)-1]) {
			t.Errorf("histogram %s does not end with a +Inf bucket", key)
			continue
		}
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				t.Errorf("histogram %s: le bounds not ascending at %d", key, i)
			}
			if h.cum[i] < h.cum[i-1] {
				t.Errorf("histogram %s: buckets not cumulative at %d", key, i)
			}
		}
		if h.cum[len(h.cum)-1] != h.count {
			t.Errorf("histogram %s: +Inf bucket %v != count %v", key, h.cum[len(h.cum)-1], h.count)
		}
		if h.count > 0 && h.sum < 0 {
			t.Errorf("histogram %s: negative sum %v for duration metric", key, h.sum)
		}
	}
}

func isInf(v float64) bool { return v > 1e308 }

// TestMetricsEndpointServesValidExposition scrapes a populated server
// the way Prometheus would and validates the whole page, plus the
// pprof side of the debug mux.
func TestMetricsEndpointServesValidExposition(t *testing.T) {
	failInst, rep, uploads := diagnosisSession(t, "pbzip2-1", 2)
	addr, srv := startServerHandle(t, failInst.Mod)
	runSession(t, dialSession(t, addr), failInst.Mod, rep, uploads)

	mux := obs.DebugMux(srv.Metrics())
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rr.Body.String()
	validateExposition(t, body)

	// Every pipeline stage must be present on the page.
	for _, name := range obs.StageNames {
		series := fmt.Sprintf(`%s_count{stage=%q}`, obs.StageSecondsName, name)
		if !strings.Contains(body, series) {
			t.Errorf("exposition is missing stage series %s", series)
		}
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rr.Code != 200 {
		t.Errorf("GET /debug/pprof/ = %d", rr.Code)
	}
}

// TestStoreMetricsConsistency puts the WAL on the fleet server's
// shared registry, drives a full case over the wire, and cross-checks
// every store counter three ways: the WAL's Stats view, the registry,
// and the rendered /metrics page a deployment scrapes.
func TestStoreMetricsConsistency(t *testing.T) {
	const quota = 4
	fx := newFleetFixture(t, quota)
	srv := NewServer(core.NewServer(fx.mod))
	srv.FleetQuota = quota
	w, err := store.Open(t.TempDir(), store.Options{
		SyncPolicy: store.SyncAlways,
		Registry:   srv.Metrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Store = w
	if err := srv.Restore(w.RecoveredState()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	c := dialFleet(t, ln.Addr().String())
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-0", 1, fx.okSnaps[:quota]); err != nil || !done {
		t.Fatalf("quota-filling upload: done=%v, err=%v", done, err)
	}
	if _, done, err := c.FetchReport(id, caseID, fx.failing.Failure.PC); err != nil || !done {
		t.Fatalf("report not published: done=%v, err=%v", done, err)
	}

	// register + open + quota accepts + quota-reached + publish + close.
	st := w.Stats()
	if want := uint64(quota + 5); st.AppendedRecords != want {
		t.Errorf("AppendedRecords = %d, want %d", st.AppendedRecords, want)
	}
	reg := srv.Metrics()
	for name, want := range map[string]uint64{
		store.MetricStoreAppendedRecords:     st.AppendedRecords,
		store.MetricStoreAppendedBytes:       st.AppendedBytes,
		store.MetricStoreFsyncs:              st.Fsyncs,
		store.MetricStoreSnapshots:           st.Snapshots,
		store.MetricStoreCompactions:         st.Compactions,
		store.MetricStoreTruncatedRecoveries: st.TruncatedRecoveries,
	} {
		if got := counterVal(t, reg, name); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	if got := gaugeVal(t, reg, store.MetricStoreSegments); got != st.Segments {
		t.Errorf("%s = %d, Stats says %d", store.MetricStoreSegments, got, st.Segments)
	}
	if got := gaugeVal(t, reg, store.MetricStoreLastLSN); got != int64(st.LastLSN) {
		t.Errorf("%s = %d, Stats says %d", store.MetricStoreLastLSN, got, st.LastLSN)
	}
	if m := findMetric(t, reg, store.MetricStoreRecordBytes); m.Histogram.Count() != st.AppendedRecords {
		t.Errorf("%s count = %d, want %d observations",
			store.MetricStoreRecordBytes, m.Histogram.Count(), st.AppendedRecords)
	}

	// The scraped page includes the store families and stays a valid
	// exposition with them on it.
	mux := obs.DebugMux(reg)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	body := rr.Body.String()
	validateExposition(t, body)
	for _, want := range []string{
		fmt.Sprintf("%s %d", store.MetricStoreAppendedRecords, st.AppendedRecords),
		fmt.Sprintf("%s %d", store.MetricStoreLastLSN, st.LastLSN),
		"# TYPE " + store.MetricStoreRecordBytes + " histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics page is missing %q", want)
		}
	}
}

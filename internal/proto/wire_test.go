package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/pt"
	"snorlax/internal/wire"
)

// readBinaryRequest reads one complete request — envelope plus chunk
// frames — the way the serving core and a handler's Assemble do.
func readBinaryRequest(r *wire.Reader, limit int64) (Request, error) {
	env, err := readEnvelope(r, limit)
	if err != nil {
		return Request{}, err
	}
	err = env.Assemble(r)
	return env.Req, err
}

// TestBinaryRequestRoundTrip pushes every request kind — including
// multi-snapshot batches with real ring bytes — through the binary
// envelope+chunks encoding and requires the decode to be deep-equal.
func TestBinaryRequestRoundTrip(t *testing.T) {
	fx := newFleetFixture(t, 2)
	f := fx.failing.Failure
	reqs := []Request{
		{Kind: "status"},
		{Kind: "register", ModuleText: fx.moduleTx},
		{Kind: "fleet-failure", Tenant: "t", Failure: f, Snapshot: fx.failing.Snapshot},
		{Kind: "fleet-failure", Tenant: "t", Failure: f,
			Snapshot: bigSnapshot(300 << 10)}, // > MaxChunkBytes: multi-chunk
		{Kind: "fleet-failure", Tenant: "t", Failure: f, Snapshot: &pt.Snapshot{Threads: map[int]pt.SnapshotThread{
			3: {Wrapped: true}, 9: {Data: []byte{1}}}, Time: 77}}, // zero-size wrapped thread
		{Kind: "directives", Tenant: "t"},
		{Kind: "batch", Tenant: "t", Case: 7, Client: "agent-3", Seq: 41,
			Snapshots: fx.okSnaps[:2], RoutePC: f.PC},
		{Kind: "batch", Tenant: "t", Case: 7, Client: "agent-3", Seq: 1,
			Snapshots: []*pt.Snapshot{nil, fx.okSnaps[0]}}, // nil slot survives
		{Kind: "report", Tenant: "t", Case: 7, RoutePC: 0},
		{Kind: "publish", Tenant: "t", Case: 7, RoutePC: f.PC},
	}
	for i, req := range reqs {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		if err := writeBinaryRequest(w, &req); err != nil {
			t.Fatalf("req %d (%s): write: %v", i, req.Kind, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(bytes.NewReader(buf.Bytes()), 0)
		got, err := readBinaryRequest(r, 0)
		if err != nil {
			t.Fatalf("req %d (%s): read: %v", i, req.Kind, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("req %d (%s): decode differs from the original", i, req.Kind)
		}
	}
}

// TestBinaryResponseRoundTrip covers every response field, pinning in
// particular that the batch ledger mark (Seq) survives the wire — the
// field the lost-reply reconciliation depends on.
func TestBinaryResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Kind: "ok"},
		{Kind: "error", Err: "message exceeds frame limit", Code: CodeUnknownTenant},
		{Kind: "report", Tenant: "t", Case: 3, Done: true},
		{Kind: "directives", Directives: []Directive{
			{Tenant: "t", Case: 3, TriggerPC: 9, Want: 10, Have: 4}}},
		{Kind: "directives", Directives: []Directive{}},
		{Kind: "batch", Tenant: "t", Case: 3, Accepted: 2, Done: true, Seq: 12345},
		{Kind: "status", Status: &ServerStatus{OpenConns: 3, CompletedDiagnoses: 9,
			CacheHits: 1, DiagnoseTime: 3 * time.Second, OversizeRejects: 2}},
	}
	for i, resp := range resps {
		b := appendResponsePayload(nil, &resp)
		got, err := parseResponsePayload(b)
		if err != nil {
			t.Fatalf("resp %d (%s): parse: %v", i, resp.Kind, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("resp %d (%s): decode differs from the original", i, resp.Kind)
		}
	}
}

// TestSessionMatchesDirectDiagnosis is the session's reference oracle:
// a session run over TCP must get a report whose fingerprint equals a
// direct core.Server.Diagnose of the same failing and success reports
// — a reference no codec can skew — whether it publishes its case with
// no success traces, with fewer than the quota, or by meeting it.
func TestSessionMatchesDirectDiagnosis(t *testing.T) {
	inst, rep, all := diagnosisSession(t, "aget-1", DefaultFleetQuota)
	for _, n := range []int{0, 6, DefaultFleetQuota} {
		t.Run(fmt.Sprintf("successes=%d", n), func(t *testing.T) {
			uploads := all[:n]
			addr, srv := startServerHandle(t, inst.Mod)
			rc := dialSession(t, addr)
			got := runSession(t, rc, inst.Mod, rep, uploads)

			successes := make([]*core.RunReport, len(uploads))
			for i, snap := range uploads {
				successes[i] = &core.RunReport{Snapshot: snap}
			}
			want, err := core.NewServer(inst.Mod).Diagnose(rep, successes)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("session diagnosis differs from the direct one:\nsession: %+v\ndirect:  %+v", got, want)
			}
			if got.Stats.SuccessTraces != len(uploads) {
				t.Fatalf("session diagnosed over %d success traces, want %d", got.Stats.SuccessTraces, len(uploads))
			}
			tenant, id := rc.Case()
			assertMatchesCaseTraces(t, srv, inst.Mod, tenant, id, got, n)
		})
	}
}

// TestOversizeSemanticsPerCodec is the oversize table: at the cap,
// one byte over the cap, a frame-limit breach, a torn frame and a
// connection without a preamble — reply strings, counters and
// connection fate.
func TestOversizeSemanticsPerCodec(t *testing.T) {
	const cap = 8 << 10
	addr, srv, inst, rep := startCappedServerAddr(t, "aget-1", cap)
	conn := dialFleet(t, addr)

	tenant, err := conn.Register(ir.Print(inst.Mod))
	if err != nil {
		t.Fatal(err)
	}
	id, _, _, err := conn.ReportFleetFailure(tenant, rep.Failure, rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	upload := func(snap *pt.Snapshot) error {
		seq++
		_, _, err := conn.UploadBatch(tenant, id, rep.Failure.PC, "agent-0", seq, []*pt.Snapshot{snap})
		return err
	}
	// At the cap: admitted.
	if err := upload(bigSnapshot(cap)); err != nil {
		t.Fatalf("at-cap snapshot rejected: %v", err)
	}
	// One byte over: deterministic rejection, connection survives.
	var se *ServerError
	if err := upload(bigSnapshot(cap + 1)); !errors.As(err, &se) ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("cap+1 snapshot: err = %v, want a cap ServerError", err)
	}
	if err := upload(bigSnapshot(16)); err != nil {
		t.Fatalf("connection did not survive a semantic oversize reject: %v", err)
	}
	if n := srv.Status().OversizeRejects; n != 1 {
		t.Errorf("OversizeRejects = %d after cap+1, want 1", n)
	}

	// Frame-limit breach: reply (racing the close) and the connection
	// dies.
	if err := upload(bigSnapshot(1 << 20)); err == nil {
		t.Fatal("frame-limit breach accepted")
	}
	if _, err := conn.Status(); err == nil {
		t.Fatal("connection survived a frame-limit breach")
	}
	if n := srv.Status().OversizeRejects; n != 2 {
		t.Errorf("OversizeRejects = %d after frame breach, want 2", n)
	}

	// Torn frame: a partial message followed by close is a transport
	// failure — no reply, and the server keeps serving.
	var torn bytes.Buffer
	w := wire.NewWriter(&torn)
	w.Preamble(wire.Version1)
	w.Frame(wire.FrameRequest, make([]byte, 100))
	w.Flush()
	expectSilence(t, addr, torn.Bytes()[:torn.Len()-40])
	// No preamble: not this protocol — closed unanswered, counted as a
	// header error.
	expectSilence(t, addr, []byte("GET / HTTP/1.0\r\n\r\n"))
	if n := counterVal(t, srv.Metrics(), MetricWireFrameErrors, obs.L("kind", frameErrHeader)); n != 1 {
		t.Errorf("header frame errors = %d after a preamble-less connection, want 1", n)
	}
	if _, err := dialFleet(t, addr).Status(); err != nil {
		t.Fatalf("server unusable after a torn frame and a preamble-less peer: %v", err)
	}
}

// expectSilence sends raw bytes on a fresh connection, half-closes it
// and requires the server to close without replying.
func expectSilence(t *testing.T, addr string, raw []byte) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.Write(raw)
	nc.(*net.TCPConn).CloseWrite()
	if got, _ := io.ReadAll(nc); len(got) != 0 {
		t.Fatalf("%q drew a %d-byte reply, want silence", raw, len(got))
	}
}

// startCappedServerAddr starts a snapshot-capped TCP server and
// returns its address.
func startCappedServerAddr(t *testing.T, bugID string, snapCap int64) (string, *Server, *corpus.Instance, *core.RunReport) {
	t.Helper()
	inst, rep := reproduce(t, bugID)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(core.NewServer(inst.Mod))
	srv.MaxSnapshotBytes = snapCap
	go srv.Serve(ln)
	return ln.Addr().String(), srv, inst, rep
}

// TestUploadBatchLedgerReplayCarriesMark is the lost-reply regression:
// a replayed batch must return the same ledger high-water mark as the
// original, so an agent that never saw the first reply can reconcile
// its accepted count instead of under-counting from the dedup's
// Accepted 0.
func TestUploadBatchLedgerReplayCarriesMark(t *testing.T) {
	fx := newFleetFixture(t, 3)
	addr, _ := startServerHandle(t, fx.mod)
	c := dialFleet(t, addr)
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	pc := fx.failing.Failure.PC
	accepted, ledger, _, err := c.UploadBatchLedger(id, caseID, pc, "agent-0", 1, fx.okSnaps[:2])
	if err != nil || accepted != 2 || ledger != 2 {
		t.Fatalf("first batch = (%d, %d, %v), want (2, 2, nil)", accepted, ledger, err)
	}
	// The reply was "lost"; the replay dedupes to Accepted 0 but must
	// carry the original mark.
	accepted, ledger, _, err = c.UploadBatchLedger(id, caseID, pc, "agent-0", 1, fx.okSnaps[:2])
	if err != nil || accepted != 0 || ledger != 2 {
		t.Fatalf("replayed batch = (%d, %d, %v), want (0, 2, nil)", accepted, ledger, err)
	}
	// A fresh batch advances the mark by exactly its admissions.
	accepted, ledger, _, err = c.UploadBatchLedger(id, caseID, pc, "agent-0", 3, fx.okSnaps[2:3])
	if err != nil || accepted != 1 || ledger != 3 {
		t.Fatalf("next batch = (%d, %d, %v), want (1, 3, nil)", accepted, ledger, err)
	}
}

// TestFleetLedgerGaugeReturnsToBaseline is the ledger-leak regression:
// closing (publishing) a case must prune every per-client sequence
// entry, returning the ledger gauge to its pre-case baseline, and a
// post-close replay must not resurrect any of it.
func TestFleetLedgerGaugeReturnsToBaseline(t *testing.T) {
	fx := newFleetFixture(t, DefaultFleetQuota)
	addr, srv := startServerHandle(t, fx.mod)
	reg := srv.Metrics()
	if v := gaugeVal(t, reg, MetricFleetLedgerEntries); v != 0 {
		t.Fatalf("ledger gauge baseline = %d, want 0", v)
	}
	c := dialFleet(t, addr)
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	pc := fx.failing.Failure.PC
	half := DefaultFleetQuota / 2
	if _, _, err := c.UploadBatch(id, caseID, pc, "agent-0", 1, fx.okSnaps[:half]); err != nil {
		t.Fatal(err)
	}
	if v := gaugeVal(t, reg, MetricFleetLedgerEntries); v != 1 {
		t.Fatalf("ledger gauge after one client = %d, want 1", v)
	}
	_, done, err := c.UploadBatch(id, caseID, pc, "agent-1", 1, fx.okSnaps[half:])
	if err != nil || !done {
		t.Fatalf("quota-crossing batch: done=%v, err=%v", done, err)
	}
	if v := gaugeVal(t, reg, MetricFleetLedgerEntries); v != 0 {
		t.Fatalf("ledger gauge after publish = %d, want 0 (entries leaked)", v)
	}
	// A late replay neither resurrects ledger entries nor reports a
	// mark it no longer holds.
	accepted, ledger, done, err := c.UploadBatchLedger(id, caseID, pc, "agent-0", 1, fx.okSnaps[:1])
	if err != nil || accepted != 0 || ledger != 0 || !done {
		t.Fatalf("post-close replay = (%d, %d, done=%v, %v), want (0, 0, true, nil)", accepted, ledger, done, err)
	}
	if v := gaugeVal(t, reg, MetricFleetLedgerEntries); v != 0 {
		t.Fatalf("ledger gauge after post-close replay = %d, want 0", v)
	}
}

// TestRestoreRebuildsPrunedLedger holds crash recovery to the same
// shape as the live server: an open case's ledger is rebuilt entry for
// entry, a closed case's ledger stays pruned, and the gauge agrees.
func TestRestoreRebuildsPrunedLedger(t *testing.T) {
	const quota = 6
	fx := newFleetFixture(t, quota)
	dir := t.TempDir()
	addr, srv, _ := startDurableServer(t, fx.mod, dir, quota)
	c := dialFleet(t, addr)
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	pc := fx.failing.Failure.PC
	if _, _, err := c.UploadBatch(id, caseID, pc, "agent-0", 1, fx.okSnaps[:3]); err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, srv)

	// Open case: recovery rebuilds the one ledger entry and a replay
	// returns the pre-crash mark.
	addr2, srv2, _ := startDurableServer(t, fx.mod, dir, quota)
	if v := gaugeVal(t, srv2.Metrics(), MetricFleetLedgerEntries); v != 1 {
		t.Fatalf("ledger gauge after recovery = %d, want 1", v)
	}
	c2 := dialFleet(t, addr2)
	accepted, ledger, _, err := c2.UploadBatchLedger(id, caseID, pc, "agent-0", 1, fx.okSnaps[:3])
	if err != nil || accepted != 0 || ledger != 3 {
		t.Fatalf("recovered replay = (%d, %d, %v), want (0, 3, nil)", accepted, ledger, err)
	}
	// Fill the quota so the case publishes and prunes, then crash again.
	if _, done, err := c2.UploadBatch(id, caseID, pc, "agent-0", 4, fx.okSnaps[3:6]); err != nil || !done {
		t.Fatalf("quota fill: done=%v, err=%v", done, err)
	}
	if v := gaugeVal(t, srv2.Metrics(), MetricFleetLedgerEntries); v != 0 {
		t.Fatalf("ledger gauge after publish = %d, want 0", v)
	}
	shutdownServer(t, srv2)

	// Closed case: recovery must land on the pruned shape.
	addr3, srv3, _ := startDurableServer(t, fx.mod, dir, quota)
	if v := gaugeVal(t, srv3.Metrics(), MetricFleetLedgerEntries); v != 0 {
		t.Fatalf("ledger gauge after recovering a closed case = %d, want 0", v)
	}
	c3 := dialFleet(t, addr3)
	accepted, ledger, done, err := c3.UploadBatchLedger(id, caseID, pc, "agent-0", 1, fx.okSnaps[:1])
	if err != nil || accepted != 0 || ledger != 0 || !done {
		t.Fatalf("post-recovery replay = (%d, %d, done=%v, %v), want (0, 0, true, nil)", accepted, ledger, done, err)
	}
}

// TestDefaultJitterSeedsDiverge is the thundering-herd regression: two
// clients with zero-value retry configs must not share a backoff
// schedule, while explicit seeds stay deterministic.
func TestDefaultJitterSeedsDiverge(t *testing.T) {
	schedule := func(cfg RetryConfig) []time.Duration {
		r := DialRetrying("tcp", "127.0.0.1:1", cfg)
		defer r.Close()
		var ds []time.Duration
		for a := 1; a <= 6; a++ {
			ds = append(ds, r.cfg.Backoff(a, r.rng.Float64()))
		}
		return ds
	}
	a := schedule(RetryConfig{})
	b := schedule(RetryConfig{})
	if reflect.DeepEqual(a, b) {
		t.Fatalf("two default-config clients share the backoff schedule %v — the herd reconnects in lockstep", a)
	}
	if x, y := schedule(RetryConfig{JitterSeed: 99}), schedule(RetryConfig{JitterSeed: 99}); !reflect.DeepEqual(x, y) {
		t.Fatalf("explicit equal seeds produced different schedules:\n%v\n%v", x, y)
	}
	if DeriveJitterSeed() == DeriveJitterSeed() {
		t.Fatal("DeriveJitterSeed returned the same seed twice in a row")
	}
}

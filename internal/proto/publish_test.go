package proto

// "publish" requests: a case diagnosed before its quota, from the
// traces it has accepted — the request a single client's session ends
// with. Exactly one diagnosis per case however publish and the
// quota-crossing batch race, the gauges a quota-crossing disarm keeps,
// the unknown-tenant and unknown-case rejections, and durability: a
// session survives a restart between its uploads and its publish, its
// report survives the next one, and
// Restore publishes an early-disarmed case exactly as the live server
// would have.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/store"
)

// TestPublishRacesQuotaCrossingBatch races a publish against the batch
// that meets the quota, round after round: whichever disarms the case
// first diagnoses it, the other runs no diagnosis, and both end up with
// the one report, equal to a direct diagnosis of the case's traces.
func TestPublishRacesQuotaCrossingBatch(t *testing.T) {
	const quota, rounds = 2, 8
	fx := newFleetFixture(t, quota)
	pc := fx.failing.Failure.PC
	for r := 0; r < rounds; r++ {
		srv := NewServer(core.NewServer(fx.mod))
		srv.FleetQuota = quota
		addr := serveOn(t, srv)
		a, b := dialFleet(t, addr), dialFleet(t, addr)
		id, err := a.Register(fx.moduleTx)
		if err != nil {
			t.Fatal(err)
		}
		caseID, _, _, err := a.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.UploadBatch(id, caseID, pc, "agent-0", 1, fx.okSnaps[:1]); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		var batchErr, pubErr error
		var pubDone bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _, batchErr = a.UploadBatch(id, caseID, pc, "agent-0", 2, fx.okSnaps[1:2])
		}()
		go func() {
			defer wg.Done()
			_, pubDone, pubErr = b.Publish(id, caseID, pc)
		}()
		wg.Wait()
		if batchErr != nil || pubErr != nil {
			t.Fatalf("round %d: batch err %v, publish err %v", r, batchErr, pubErr)
		}
		d, done, err := b.FetchReport(id, caseID, pc)
		for err == nil && !done {
			time.Sleep(time.Millisecond)
			d, done, err = b.FetchReport(id, caseID, pc)
		}
		if err != nil {
			t.Fatal(err)
		}
		if n := srv.Status().CompletedDiagnoses; n != 1 {
			t.Fatalf("round %d: %d diagnoses (publish done=%v), want exactly 1", r, n, pubDone)
		}
		_, successes, _ := srv.FleetCaseTraces(id, caseID)
		assertMatchesCaseTraces(t, srv, fx.mod, id, caseID, d, len(successes))
		reg := srv.Metrics()
		for _, g := range []string{MetricFleetArmedDirectives, MetricFleetQuotaWant, MetricFleetQuotaHave, MetricFleetLedgerEntries} {
			if v := gaugeVal(t, reg, g); v != 0 {
				t.Errorf("round %d: %s = %d after publish, want 0", r, g, v)
			}
		}
	}
}

// TestPublishUnknownTenantAndCase: publish answers a tenant or case the
// server does not hold with the machine-readable rejections every
// other case-scoped request uses, and the connection keeps serving.
func TestPublishUnknownTenantAndCase(t *testing.T) {
	fx := newFleetFixture(t, 0)
	addr, _ := startServerHandle(t, fx.mod)
	c := dialFleet(t, addr)
	var se *ServerError
	if _, _, err := c.Publish("nope", 1, 0); !errors.As(err, &se) || se.Code != CodeUnknownTenant {
		t.Errorf("unknown tenant: err = %v, want a %s rejection", err, CodeUnknownTenant)
	}
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Publish(id, 42, 0); !errors.As(err, &se) || se.Code != CodeUnknownCase {
		t.Errorf("unknown case: err = %v, want a %s rejection", err, CodeUnknownCase)
	}
	if _, err := c.Status(); err != nil {
		t.Fatalf("connection dead after publish rejections: %v", err)
	}
}

// TestSessionSurvivesRestartBeforePublish restarts a durable server
// between a session's uploads and its publish: the retrying client
// reconnects to the restarted server, whose recovered case holds the
// uploads, and the report equals a direct diagnosis of them.
func TestSessionSurvivesRestartBeforePublish(t *testing.T) {
	const uploads = 3
	fx := newFleetFixture(t, uploads)
	dir := t.TempDir()
	addr, srv, _ := startDurableServer(t, fx.mod, dir, 0)
	var mu sync.Mutex
	dial := func() (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		return net.Dial("tcp", addr)
	}
	rc := NewRetryClient(dial, RetryConfig{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer rc.Close()
	if _, err := rc.ReportFailure(fx.mod, fx.failing.Failure, fx.failing.Snapshot); err != nil {
		t.Fatal(err)
	}
	for _, snap := range fx.okSnaps[:uploads] {
		if err := rc.SendSuccess(snap); err != nil {
			t.Fatal(err)
		}
	}
	shutdownServer(t, srv)
	mu.Lock()
	addr, srv, _ = startDurableServer(t, fx.mod, dir, 0)
	mu.Unlock()

	d, err := rc.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Retries() == 0 {
		t.Error("the session never reconnected across the restart")
	}
	tenant, id := rc.Case()
	assertMatchesCaseTraces(t, srv, fx.mod, tenant, id, d, uploads)

	// The early publish is logged like a quota-crossing one: a second
	// restart re-serves the report without diagnosing again.
	shutdownServer(t, srv)
	addr, srv, _ = startDurableServer(t, fx.mod, dir, 0)
	again, done, err := dialFleet(t, addr).FetchReport(tenant, id, fx.failing.Failure.PC)
	if err != nil || !done || again.Fingerprint() != d.Fingerprint() {
		t.Fatalf("report after a second restart: done=%v, err=%v, same=%v", done, err, err == nil && again != nil && again.Fingerprint() == d.Fingerprint())
	}
	if n := srv.Status().CompletedDiagnoses; n != 0 {
		t.Errorf("recovered server ran %d diagnoses, want 0", n)
	}
}

// TestEarlyPublishCrashWindowRestored: a case disarmed by publish
// before its quota, whose verdict never reached the log, is published
// by Restore from exactly its logged traces — the report the live
// server published.
func TestEarlyPublishCrashWindowRestored(t *testing.T) {
	const quota, accepted = 4, 2
	fx := newFleetFixture(t, accepted)
	live := NewServer(core.NewServer(fx.mod))
	live.FleetQuota = quota
	c := dialFleet(t, serveOn(t, live))
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	pc := fx.failing.Failure.PC
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.UploadBatch(id, caseID, pc, "agent-0", 1, fx.okSnaps[:accepted]); err != nil {
		t.Fatal(err)
	}
	diag, done, err := c.Publish(id, caseID, pc)
	if err != nil || !done {
		t.Fatalf("publish: done=%v, err=%v", done, err)
	}

	fs := &fakeStore{}
	srv := NewServer(core.NewServer(fx.mod))
	srv.FleetQuota = quota
	srv.Store = fs
	if err := srv.Restore(&store.State{Programs: []*store.ProgramState{{
		Tenant: string(id), ModuleText: fx.moduleTx, NextCase: uint64(caseID),
		Cases: map[uint64]*store.CaseState{uint64(caseID): {
			ID: uint64(caseID), TriggerPC: pc, Want: quota,
			Failure: fx.failing.Failure, FailSnapshot: fx.failing.Snapshot,
			Successes: fx.okSnaps[:accepted],
			Clients:   map[string]uint64{"agent-0": accepted},
		}},
	}}}); err != nil {
		t.Fatal(err)
	}
	// Verdict and close are logged now; the disarm already was.
	if fs.appended != 2 {
		t.Errorf("Restore logged %d records, want 2", fs.appended)
	}
	got, done, err := dialFleet(t, serveOn(t, srv)).FetchReport(id, caseID, pc)
	if err != nil || !done || got == nil {
		t.Fatalf("restored report: done=%v, diag=%v, err=%v", done, got, err)
	}
	if got.Fingerprint() != diag.Fingerprint() {
		t.Error("crash-window report differs from the live server's early publish")
	}
}

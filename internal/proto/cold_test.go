package proto

// Cold tenants: a restored tenant holds only its id and canonical text
// and parses its module the first time a case needs it. These tests
// pin the deterministic proxy for that laziness — the tenants-loaded
// gauge — and that every check on a module still runs before it is
// used. Alongside: a batch whose reply is lost before the case closes
// still gets its ledger mark back, live and after Restore.

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/store"
)

// serveOn serves srv on a loopback listener until the test ends.
func serveOn(t *testing.T, srv *Server) string {
	t.Helper()
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
	return ln.Addr().String()
}

// publishFixture drives one case of fx to its published report and
// returns the tenant, the case and the report.
func publishFixture(t *testing.T, c *Conn, fx *fleetFixture, quota int) (TenantID, CaseID, *core.Diagnosis) {
	t.Helper()
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	pc := fx.failing.Failure.PC
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := c.UploadBatch(id, caseID, pc, "agent-0", 1, fx.okSnaps[:quota]); err != nil || !done {
		t.Fatalf("quota-filling upload: done=%v, err=%v", done, err)
	}
	diag, done, err := c.FetchReport(id, caseID, pc)
	if err != nil || !done || diag == nil {
		t.Fatalf("live report: done=%v, diag=%v, err=%v", done, diag, err)
	}
	return id, caseID, diag
}

// TestRestoredTenantsStayColdUntilACaseOpens is the tentpole's
// deterministic proxy: after Restore of a multi-tenant state no tenant
// is parsed, re-serving every published report parses none, and the
// first failure report parses exactly its own tenant.
func TestRestoredTenantsStayColdUntilACaseOpens(t *testing.T) {
	const quota = 4
	var fxs []*fleetFixture
	for _, id := range []string{"pbzip2-1", "httpd-4", "dbcp-1"} {
		fxs = append(fxs, newFleetFixtureFor(t, id, quota))
	}
	dir := t.TempDir()
	addr, srv, _ := startDurableServer(t, fxs[0].mod, dir, quota)
	if v := gaugeVal(t, srv.Metrics(), MetricFleetTenantsLoaded); v != 0 {
		t.Fatalf("tenants loaded before any registration = %d, want 0", v)
	}
	c := dialFleet(t, addr)
	tenants := make([]TenantID, len(fxs))
	cases := make([]CaseID, len(fxs))
	want := make([]string, len(fxs))
	for i, fx := range fxs {
		id, caseID, diag := publishFixture(t, c, fx, quota)
		tenants[i], cases[i], want[i] = id, caseID, diag.Fingerprint()
	}
	// Registration stays warm.
	if v := gaugeVal(t, srv.Metrics(), MetricFleetTenantsLoaded); v != int64(len(fxs)) {
		t.Fatalf("tenants loaded after registration = %d, want %d", v, len(fxs))
	}
	shutdownServer(t, srv)

	addr2, srv2, _ := startDurableServer(t, fxs[0].mod, dir, quota)
	reg := srv2.Metrics()
	if v := gaugeVal(t, reg, MetricFleetTenants); v != int64(len(fxs)) {
		t.Fatalf("tenants after Restore = %d, want %d", v, len(fxs))
	}
	if v := gaugeVal(t, reg, MetricFleetTenantsLoaded); v != 0 {
		t.Fatalf("tenants loaded after Restore = %d, want 0", v)
	}
	c2 := dialFleet(t, addr2)
	for i, fx := range fxs {
		diag, done, err := c2.FetchReport(tenants[i], cases[i], fx.failing.Failure.PC)
		if err != nil || !done || diag == nil {
			t.Fatalf("recovered report %d: done=%v, diag=%v, err=%v", i, done, diag, err)
		}
		if diag.Fingerprint() != want[i] {
			t.Errorf("recovered report %d differs from the one published live", i)
		}
	}
	if v := gaugeVal(t, reg, MetricFleetTenantsLoaded); v != 0 {
		t.Fatalf("tenants loaded after re-serving every report = %d, want 0", v)
	}
	caseID, _, done, err := c2.ReportFleetFailure(tenants[1], fxs[1].failing.Failure, fxs[1].failing.Snapshot)
	if err != nil || caseID != cases[1] || !done {
		t.Fatalf("failure report joined case %d (done=%v, %v), want %d (true)", caseID, done, err, cases[1])
	}
	if v := gaugeVal(t, reg, MetricFleetTenantsLoaded); v != 1 {
		t.Fatalf("tenants loaded after one failure report = %d, want 1", v)
	}
	// Re-registering a cold tenant hands it the caller's parsed module.
	if id, err := srv2.RegisterProgram(fxs[2].mod); err != nil || id != tenants[2] {
		t.Fatalf("re-registration = (%.12s, %v), want (%.12s, nil)", id, err, tenants[2])
	}
	if v := gaugeVal(t, reg, MetricFleetTenantsLoaded); v != 2 {
		t.Fatalf("tenants loaded after re-registration = %d, want 2", v)
	}
}

// TestConcurrentFailuresLoadColdTenantOnce: two failure reports racing
// on one cold tenant parse it once and join one case (run it under
// -race).
func TestConcurrentFailuresLoadColdTenantOnce(t *testing.T) {
	fx := newFleetFixture(t, 0)
	dir := t.TempDir()
	addr, srv, _ := startDurableServer(t, fx.mod, dir, DefaultFleetQuota)
	id, err := dialFleet(t, addr).Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	shutdownServer(t, srv)

	addr2, srv2, _ := startDurableServer(t, fx.mod, dir, DefaultFleetQuota)
	conns := []*Conn{dialFleet(t, addr2), dialFleet(t, addr2)}
	got := make([]CaseID, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *Conn) {
			defer wg.Done()
			got[i], _, _, errs[i] = c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	if got[0] != got[1] {
		t.Errorf("concurrent reports opened cases %d and %d, want one", got[0], got[1])
	}
	reg := srv2.Metrics()
	if v := gaugeVal(t, reg, MetricFleetTenantsLoaded); v != 1 {
		t.Errorf("tenants loaded = %d, want 1", v)
	}
	if v := gaugeVal(t, reg, MetricFleetArmedDirectives); v != 1 {
		t.Errorf("armed directives = %d, want 1", v)
	}
}

// TestUnparsableColdTenantRejectsFailure: text that hashes to its
// tenant id passes Restore's integrity check, but a module that does
// not parse must never open a case. The first failure report gets an
// error reply and nothing reaches the log.
func TestUnparsableColdTenantRejectsFailure(t *testing.T) {
	fx := newFleetFixture(t, 0)
	const text = "not a module"
	id := textFingerprint(text)
	fs := &fakeStore{}
	srv := NewServer(core.NewServer(fx.mod))
	srv.Store = fs
	if err := srv.Restore(&store.State{Programs: []*store.ProgramState{{
		Tenant: string(id), ModuleText: text, Cases: map[uint64]*store.CaseState{},
	}}}); err != nil {
		t.Fatalf("Restore rejected text that matches its fingerprint: %v", err)
	}
	addr := serveOn(t, srv)
	c := dialFleet(t, addr)
	for i := 0; i < 2; i++ {
		_, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("failure report %d on an unparsable tenant: err = %v, want a server error", i, err)
		}
	}
	if fs.appended != 0 {
		t.Errorf("%d records logged for an unparsable tenant, want 0", fs.appended)
	}
	if v := gaugeVal(t, srv.Metrics(), MetricFleetTenantsLoaded); v != 0 {
		t.Errorf("tenants loaded = %d, want 0", v)
	}
}

// TestCrashWindowCaseRestoredColdPublishesIdentically: a case whose
// quota was met but whose verdict never reached the log is diagnosed
// by Restore, which must load the cold tenant to do it, and publishes
// exactly the report the uninterrupted server did.
func TestCrashWindowCaseRestoredColdPublishesIdentically(t *testing.T) {
	const quota = 4
	fx := newFleetFixture(t, quota)
	live := NewServer(core.NewServer(fx.mod))
	live.FleetQuota = quota
	id, caseID, diag := publishFixture(t, dialFleet(t, serveOn(t, live)), fx, quota)

	fs := &fakeStore{}
	srv := NewServer(core.NewServer(fx.mod))
	srv.FleetQuota = quota
	srv.Store = fs
	if err := srv.Restore(&store.State{Programs: []*store.ProgramState{{
		Tenant: string(id), ModuleText: fx.moduleTx, NextCase: uint64(caseID),
		Cases: map[uint64]*store.CaseState{uint64(caseID): {
			ID: uint64(caseID), TriggerPC: fx.failing.Failure.PC, Want: quota,
			Failure: fx.failing.Failure, FailSnapshot: fx.failing.Snapshot,
			Successes:  fx.okSnaps[:quota],
			Clients:    map[string]uint64{"agent-0": quota},
			Collecting: true,
		}},
	}}}); err != nil {
		t.Fatal(err)
	}
	// Disarm, verdict and close are logged now.
	if fs.appended != 3 {
		t.Errorf("Restore logged %d records, want 3", fs.appended)
	}
	if v := gaugeVal(t, srv.Metrics(), MetricFleetTenantsLoaded); v != 1 {
		t.Errorf("tenants loaded = %d, want 1", v)
	}
	got, done, err := dialFleet(t, serveOn(t, srv)).FetchReport(id, caseID, fx.failing.Failure.PC)
	if err != nil || !done || got == nil {
		t.Fatalf("restored report: done=%v, diag=%v, err=%v", done, got, err)
	}
	if got.Fingerprint() != diag.Fingerprint() {
		t.Error("crash-window report differs from the uninterrupted server's")
	}
}

// TestLostReplyAfterCloseGetsItsMark: when the reply to a client's
// last accepting batch is lost and its retry finds the case closed,
// the retry still gets that batch's mark, whether or not the batch
// was the one that crossed the quota, and from a restored server
// exactly as from the live one. Any other late upload gets no mark.
func TestLostReplyAfterCloseGetsItsMark(t *testing.T) {
	const quota = 4
	fx := newFleetFixture(t, quota)
	dir := t.TempDir()
	addr, srv, _ := startDurableServer(t, fx.mod, dir, quota)
	c := dialFleet(t, addr)
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	pc := fx.failing.Failure.PC
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.UploadBatch(id, caseID, pc, "agent-0", 1, fx.okSnaps[:2]); err != nil {
		t.Fatal(err)
	}
	// agent-1's batch crosses the quota; both agents' replies are lost.
	if accepted, done, err := c.UploadBatch(id, caseID, pc, "agent-1", 1, fx.okSnaps[2:4]); err != nil || accepted != 2 || !done {
		t.Fatalf("crossing batch = (%d, done=%v, %v), want (2, true)", accepted, done, err)
	}
	check := func(c *Conn, when string) {
		t.Helper()
		for _, tc := range []struct {
			client     string
			seq        uint64
			n          int
			wantLedger uint64
		}{
			{"agent-1", 1, 2, 2}, // the crossing batch, replayed
			{"agent-0", 1, 2, 2}, // a non-crossing batch, replayed after the close
			{"agent-0", 1, 1, 0}, // not the client's last batch
			{"agent-0", 3, 2, 0}, // a new batch after the close
			{"agent-2", 1, 2, 0}, // a client that never got a trace in
		} {
			accepted, ledger, done, err := c.UploadBatchLedger(id, caseID, pc, tc.client, tc.seq, fx.okSnaps[:tc.n])
			if err != nil || accepted != 0 || ledger != tc.wantLedger || !done {
				t.Errorf("%s: %s seq %d×%d = (%d, %d, done=%v, %v), want (0, %d, true, nil)",
					when, tc.client, tc.seq, tc.n, accepted, ledger, done, err, tc.wantLedger)
			}
		}
	}
	check(c, "live")
	if v := gaugeVal(t, srv.Metrics(), MetricFleetLedgerEntries); v != 0 {
		t.Errorf("ledger gauge after close = %d, want 0", v)
	}
	shutdownServer(t, srv)

	addr2, srv2, _ := startDurableServer(t, fx.mod, dir, quota)
	check(dialFleet(t, addr2), "restored")
	if v := gaugeVal(t, srv2.Metrics(), MetricFleetLedgerEntries); v != 0 {
		t.Errorf("ledger gauge after Restore = %d, want 0", v)
	}
}

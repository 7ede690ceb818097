package proto

import (
	"errors"
	"strings"
	"testing"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// fleetFixture reproduces one corpus failure and a stock of triggered
// success snapshots for driving the fleet wire protocol by hand.
type fleetFixture struct {
	mod      *ir.Module
	failing  *core.RunReport
	okSnaps  []*pt.Snapshot
	moduleTx string
}

func newFleetFixture(t *testing.T, want int) *fleetFixture {
	t.Helper()
	return newFleetFixtureFor(t, "pbzip2-1", want)
}

// newFleetFixtureFor is newFleetFixture for any corpus bug whose
// success runs reach its failure PC.
func newFleetFixtureFor(t *testing.T, bugID string, want int) *fleetFixture {
	t.Helper()
	bug := corpus.ByID(bugID)
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	okInst := bug.Build(corpus.Variant{Failing: false})
	okClient := core.NewClient(okInst.Mod)
	var snaps []*pt.Snapshot
	for seed := int64(1); len(snaps) < want && seed < 256; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered {
			snaps = append(snaps, r.Snapshot)
		}
	}
	if len(snaps) < want {
		t.Fatalf("gathered %d/%d success snapshots", len(snaps), want)
	}
	return &fleetFixture{mod: failInst.Mod, failing: rep,
		okSnaps: snaps, moduleTx: ir.Print(failInst.Mod)}
}

func dialFleet(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFleetRegistrationIdempotent(t *testing.T) {
	fx := newFleetFixture(t, 0)
	addr, srv := startServerHandle(t, fx.mod)
	c1 := dialFleet(t, addr)
	c2 := dialFleet(t, addr)

	id1, err := c1.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c2.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("same program registered as two tenants: %s vs %s", id1, id2)
	}
	if id1 != ModuleFingerprint(fx.mod) {
		t.Errorf("tenant id %s is not the module fingerprint", id1)
	}
	if v := srv.Metrics().Find(MetricFleetTenants).Gauge.Value(); v != 1 {
		t.Errorf("tenants gauge = %d after duplicate registration, want 1", v)
	}

	// Server-side pre-registration lands on the same tenant too: the
	// fingerprint, not the registration path, is the identity.
	id, err := srv.RegisterProgram(fx.mod)
	if err != nil {
		t.Fatal(err)
	}
	if id != id1 {
		t.Errorf("RegisterProgram = %s, want %s", id, id1)
	}
}

func TestFleetDisableRegistration(t *testing.T) {
	fx := newFleetFixture(t, 0)
	addr, srv := startServerHandle(t, fx.mod)
	srv.DisableRegistration = true
	c := dialFleet(t, addr)
	if _, err := c.Register(fx.moduleTx); err == nil {
		t.Fatal("registration succeeded on a registration-disabled server")
	} else {
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("err = %v, want a deterministic ServerError", err)
		}
	}
	// Pre-registered tenants still serve.
	id, err := srv.RegisterProgram(fx.mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Directives(id); err != nil {
		t.Fatalf("pre-registered tenant unusable: %v", err)
	}
}

func TestFleetCaseJoinsByFailurePC(t *testing.T) {
	fx := newFleetFixture(t, 0)
	addr, srv := startServerHandle(t, fx.mod)
	c1 := dialFleet(t, addr)
	c2 := dialFleet(t, addr)
	id, err := c1.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}

	case1, d1, done, err := c1.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("fresh case reported as done")
	}
	if d1.TriggerPC != fx.failing.Failure.PC {
		t.Errorf("directive trigger = %d, want failure PC %d", d1.TriggerPC, fx.failing.Failure.PC)
	}
	if d1.Want != DefaultFleetQuota || d1.Have != 0 {
		t.Errorf("fresh directive quota = %d/%d, want 0/%d", d1.Have, d1.Want, DefaultFleetQuota)
	}
	case2, _, _, err := c2.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if case1 != case2 {
		t.Errorf("same failure PC opened two cases: %d and %d", case1, case2)
	}
	if v := srv.Metrics().Find(MetricFleetArmedDirectives).Gauge.Value(); v != 1 {
		t.Errorf("armed directives gauge = %d, want 1", v)
	}
	ds, err := c2.Directives(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Case != case1 {
		t.Errorf("directives = %+v, want the one armed case", ds)
	}
}

func TestFleetBatchDedupe(t *testing.T) {
	fx := newFleetFixture(t, 4)
	addr, srv := startServerHandle(t, fx.mod)
	c := dialFleet(t, addr)
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}

	batch := fx.okSnaps[:2]
	accepted, done, err := c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-0", 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 || done {
		t.Fatalf("first upload accepted %d (done=%v), want 2", accepted, done)
	}
	// The reply was "lost"; the agent replays the identical batch. The
	// sequence ledger must not double-count it.
	accepted, _, err = c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-0", 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 0 {
		t.Fatalf("replayed batch accepted %d snapshots, want 0", accepted)
	}
	// A partially replayed batch (one old, one new) admits only the new.
	accepted, _, err = c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-0", 2, fx.okSnaps[1:3])
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatalf("overlapping batch accepted %d snapshots, want 1", accepted)
	}
	// A different agent's sequence numbers are an independent stream.
	accepted, _, err = c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-1", 1, fx.okSnaps[3:4])
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatalf("second agent's batch accepted %d snapshots, want 1", accepted)
	}
	if v := srv.Metrics().Find(MetricFleetQuotaHave).Gauge.Value(); v != 4 {
		t.Errorf("quota-have gauge = %d, want 4", v)
	}
	_, successes, ok := srv.FleetCaseTraces(id, caseID)
	if !ok || len(successes) != 4 {
		t.Fatalf("server holds %d accepted traces, want 4", len(successes))
	}
}

func TestFleetReportPendingUntilQuota(t *testing.T) {
	fx := newFleetFixture(t, DefaultFleetQuota)
	addr, srv := startServerHandle(t, fx.mod)
	c := dialFleet(t, addr)
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	diag, done, err := c.FetchReport(id, caseID, fx.failing.Failure.PC)
	if err != nil {
		t.Fatal(err)
	}
	if done || diag != nil {
		t.Fatal("report published before any successes arrived")
	}

	accepted, done, err := c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-0", 1, fx.okSnaps)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != DefaultFleetQuota || !done {
		t.Fatalf("quota-filling batch accepted %d (done=%v), want %d (true)",
			accepted, done, DefaultFleetQuota)
	}
	diag, done, err = c.FetchReport(id, caseID, fx.failing.Failure.PC)
	if err != nil {
		t.Fatal(err)
	}
	if !done || diag == nil {
		t.Fatal("report not published after the quota was met")
	}
	if diag.Best.Pattern == nil {
		t.Fatalf("published diagnosis is empty: %+v", diag)
	}
	// Quota met: the directive disarms and further uploads are ignored.
	ds, err := c.Directives(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Errorf("directives after quota = %+v, want none", ds)
	}
	accepted, done, err = c.UploadBatch(id, caseID, fx.failing.Failure.PC, "agent-1", 1, fx.okSnaps[:1])
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 0 || !done {
		t.Errorf("post-quota upload accepted %d (done=%v), want 0 (true)", accepted, done)
	}
	if v := srv.Metrics().Find(MetricFleetReports).Counter.Value(); v != 1 {
		t.Errorf("reports counter = %d, want 1", v)
	}
	if v := srv.Metrics().Find(MetricFleetQuotaWant).Gauge.Value(); v != 0 {
		t.Errorf("quota-want gauge = %d after disarm, want 0", v)
	}
	// A late failure report for the same PC joins the finished case and
	// signals the report is ready.
	caseAgain, _, done, err := c.ReportFleetFailure(id, fx.failing.Failure, fx.failing.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if caseAgain != caseID || !done {
		t.Errorf("late report joined case %d (done=%v), want %d (true)", caseAgain, done, caseID)
	}
}

func TestFleetUnknownTenantAndCase(t *testing.T) {
	fx := newFleetFixture(t, 0)
	addr, _ := startServerHandle(t, fx.mod)
	c := dialFleet(t, addr)
	var se *ServerError
	if _, err := c.Directives("nope"); !errors.As(err, &se) {
		t.Errorf("unknown tenant: err = %v, want ServerError", err)
	}
	id, err := c.Register(fx.moduleTx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.FetchReport(id, 42, 0); !errors.As(err, &se) {
		t.Errorf("unknown case: err = %v, want ServerError", err)
	}
	if _, err := c.Register("not a module"); !errors.As(err, &se) {
		t.Errorf("bad module text: err = %v, want ServerError", err)
	}
	// The connection survived every rejection.
	if _, err := c.Status(); err != nil {
		t.Fatalf("connection dead after protocol rejections: %v", err)
	}
}

// TestRegisterRejectsUncompilableModule: a module whose array length
// does not fit the bytecode engine's int32 operand words fails
// ir.Verify, so registering its text gets an error reply and appends
// no record to the store.
func TestRegisterRejectsUncompilableModule(t *testing.T) {
	fx := newFleetFixture(t, 0)
	addr, _, w := startDurableServer(t, fx.mod, t.TempDir(), 0)
	before := w.Stats().AppendedRecords
	c := dialFleet(t, addr)
	const text = "module uncompilable\n\nfunc main() {\nentry:\n" +
		"  %a = alloca [8589934592]int\n  %p = indexaddr %a, 0\n  store 42, %p\n" +
		"  %v = load %p\n  print %v\n  ret\n}\n"
	var se *ServerError
	if _, err := c.Register(text); !errors.As(err, &se) || !strings.Contains(err.Error(), "length outside") {
		t.Fatalf("register = %v, want a ServerError rejecting the array length", err)
	}
	if n := w.Stats().AppendedRecords - before; n != 0 {
		t.Errorf("rejected registration appended %d records, want 0", n)
	}
}

package proto

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
)

// startServer runs a protocol server on a loopback listener.
func startServer(t *testing.T, mod *ir.Module) string {
	addr, _ := startServerHandle(t, mod)
	return addr
}

func startServerHandle(t *testing.T, mod *ir.Module) (string, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(core.NewServer(mod))
	go srv.Serve(ln)
	return ln.Addr().String(), srv
}

// dialSession returns a one-attempt session client on addr: its
// operations share one connection, and Retries stays 0 unless a
// transport failure forced a re-dial.
func dialSession(t *testing.T, addr string) *RetryClient {
	t.Helper()
	rc := DialRetrying("tcp", addr, RetryConfig{MaxAttempts: 1})
	t.Cleanup(func() { rc.Close() })
	return rc
}

// assertMatchesCaseTraces requires d to be fingerprint-equal to a
// direct core.Server.Diagnose of its case's FleetCaseTraces on srv,
// over want success traces.
func assertMatchesCaseTraces(t *testing.T, srv *Server, mod *ir.Module, tenant TenantID, id CaseID, d *core.Diagnosis, want int) {
	t.Helper()
	failing, successes, ok := srv.FleetCaseTraces(tenant, id)
	if !ok {
		t.Fatalf("case %d not on the server", id)
	}
	if len(successes) != want {
		t.Fatalf("case holds %d success traces, want %d", len(successes), want)
	}
	direct, err := core.NewServer(mod).Diagnose(failing, successes)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() != direct.Fingerprint() {
		t.Fatalf("session report differs from a direct diagnosis of its case's traces:\nsession: %+v\ndirect:  %+v", d.Best, direct.Best)
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	bug := corpus.ByID("pbzip2-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	addr, srv := startServerHandle(t, failInst.Mod)
	conn := dialSession(t, addr)

	// Client side: reproduce the failure under trace.
	failClient := core.NewClient(failInst.Mod)
	rep := failClient.Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	trigger, err := conn.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if trigger != rep.Failure.PC {
		t.Errorf("trigger = %d, want failure PC %d", trigger, rep.Failure.PC)
	}

	// Ten successful executions traced at the trigger: exactly the
	// quota, so the tenth upload publishes the case.
	okClient := core.NewClient(okInst.Mod)
	sent := 0
	for seed := int64(1); sent < DefaultFleetQuota && seed < 40; seed++ {
		okRep := okClient.Run(seed, trigger)
		if okRep.Failed() || !okRep.Triggered {
			continue
		}
		if err := conn.SendSuccess(okRep.Snapshot); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if sent != DefaultFleetQuota {
		t.Fatalf("sent %d successful traces", sent)
	}

	d, err := conn.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Pattern == nil || d.Best.F1 != 1.0 {
		t.Fatalf("diagnosis over the wire = %+v", d.Best)
	}
	truth := core.Truth{Kind: failInst.TruthKind, Sub: failInst.TruthSub,
		PCs: failInst.TruthPCs, Absence: failInst.TruthAbsence}
	if !core.MatchesTruth(d.Best.Pattern, truth) {
		t.Errorf("wire diagnosis %s does not match truth", d.Best.Pattern.Key())
	}
	tenant, id := conn.Case()
	assertMatchesCaseTraces(t, srv, failInst.Mod, tenant, id, d, DefaultFleetQuota)
	if conn.Retries() != 0 {
		t.Errorf("Retries = %d on a clean connection, want 0", conn.Retries())
	}
}

func TestMalformedFailureRejected(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	addr := startServer(t, inst.Mod)
	_, err := dialSession(t, addr).ReportFailure(inst.Mod, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownRequestRejected(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	addr := startServer(t, inst.Mod)
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip(Request{Kind: "frobnicate"}); err == nil ||
		!strings.Contains(err.Error(), "unknown request") {
		t.Fatalf("err = %v", err)
	}
}

func TestPipeTransport(t *testing.T) {
	// The protocol must also work over an in-memory pipe (no TCP).
	bug := corpus.ByID("memcached-2")
	failInst := bug.Build(corpus.Variant{Failing: true})
	srv := NewServer(core.NewServer(failInst.Mod))
	a, b := net.Pipe()
	defer a.Close()
	srv.init()
	go srv.conns.serveConn(b, srv.connHandler())

	conn := NewRetryClient(func() (net.Conn, error) { return a, nil }, RetryConfig{MaxAttempts: 1})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	if _, err := conn.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	d, err := conn.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	// With zero successful traces the diagnosis still ranks patterns
	// (statistics are just weaker).
	if len(d.Scores) == 0 {
		t.Error("no scores without success traces")
	}
}

// TestConcurrentClientsFullFlow drives N simultaneous clients through
// the complete session — failure report, success uploads, diagnosis —
// against one shared server. Every client ships the same reproduction,
// so every session joins one case: the uploads race the quota while
// other sessions publish, and exactly one diagnosis runs, whose report
// every client gets. Run under -race this covers the disarm race, the
// semaphore, the counters and the shared analysis cache.
func TestConcurrentClientsFullFlow(t *testing.T) {
	bug := corpus.ByID("pbzip2-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	addr, srv := startServerHandle(t, failInst.Mod)

	// Reproduce once; all clients upload identical reports so the
	// diagnoses must be identical too.
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	okClient := core.NewClient(okInst.Mod)
	var oks []*core.RunReport
	for seed := int64(1); len(oks) < 5 && seed < 40; seed++ {
		okRep := okClient.Run(seed, rep.Failure.PC)
		if !okRep.Failed() && okRep.Triggered {
			oks = append(oks, okRep)
		}
	}
	if len(oks) < 5 {
		t.Fatalf("gathered %d/5 successful traces", len(oks))
	}

	const clients = 6
	diags := make(chan *core.Diagnosis, clients)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			conn := DialRetrying("tcp", addr, RetryConfig{MaxAttempts: 1})
			defer conn.Close()
			if _, err := conn.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot); err != nil {
				errs <- err
				return
			}
			for _, ok := range oks {
				if err := conn.SendSuccess(ok.Snapshot); err != nil {
					errs <- err
					return
				}
			}
			d, err := conn.Diagnose()
			if err != nil {
				errs <- err
				return
			}
			if d.Best.Pattern == nil {
				errs <- fmt.Errorf("empty diagnosis")
				return
			}
			diags <- d
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	first := <-diags
	for c := 1; c < clients; c++ {
		if d := <-diags; d.Fingerprint() != first.Fingerprint() {
			t.Errorf("client reports disagree: %s vs %s", d.Best.Pattern.Key(), first.Best.Pattern.Key())
		}
	}
	tenant := ModuleFingerprint(failInst.Mod)
	assertMatchesCaseTraces(t, srv, failInst.Mod, tenant, 1, first, first.Stats.SuccessTraces)

	st := srv.Status()
	if st.CompletedDiagnoses != 1 {
		t.Errorf("completed = %d, want 1 (one case)", st.CompletedDiagnoses)
	}
	if st.ActiveDiagnoses != 0 || st.QueuedDiagnoses != 0 {
		t.Errorf("active/queued = %d/%d after drain, want 0/0",
			st.ActiveDiagnoses, st.QueuedDiagnoses)
	}
	if st.CacheHits+st.CacheMisses != 1 {
		t.Errorf("cache hits+misses = %d, want 1", st.CacheHits+st.CacheMisses)
	}
	if st.DiagnoseTime <= 0 {
		t.Error("no diagnosis wall time recorded")
	}
}

// TestStatusOverWire exercises the "status" request end to end.
func TestStatusOverWire(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	addr, _ := startServerHandle(t, inst.Mod)
	conn := dialSession(t, addr)

	st, err := conn.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.OpenConns != 1 {
		t.Errorf("open conns = %d, want 1", st.OpenConns)
	}
	if st.MaxConcurrent < 1 || st.Workers < 1 {
		t.Errorf("effective knobs = %d/%d, want >= 1", st.MaxConcurrent, st.Workers)
	}
	if st.CompletedDiagnoses != 0 {
		t.Errorf("completed = %d before any diagnosis", st.CompletedDiagnoses)
	}

	// Status is valid mid-conversation too (after a failure upload).
	rep := core.NewClient(inst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Diagnose(); err != nil {
		t.Fatal(err)
	}
	st, err = conn.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedDiagnoses != 1 {
		t.Errorf("completed = %d, want 1", st.CompletedDiagnoses)
	}
}

func TestConcurrentClients(t *testing.T) {
	bug := corpus.ByID("aget-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	addr := startServer(t, failInst.Mod)

	const clients = 4
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			conn := DialRetrying("tcp", addr, RetryConfig{MaxAttempts: 1})
			defer conn.Close()
			rep := core.NewClient(failInst.Mod).Run(int64(c)+1, ir.NoPC)
			if !rep.Failed() {
				errs <- fmt.Errorf("client %d: no failure", c)
				return
			}
			if _, err := conn.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot); err != nil {
				errs <- err
				return
			}
			d, err := conn.Diagnose()
			if err != nil {
				errs <- err
				return
			}
			if len(d.Scores) == 0 {
				errs <- fmt.Errorf("client %d: empty diagnosis", c)
				return
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

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

func TestEndToEndOverTCP(t *testing.T) {
	bug := corpus.ByID("pbzip2-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	addr := startServer(t, failInst.Mod)

	conn, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Client side: reproduce the failure under trace.
	failClient := core.NewClient(failInst.Mod)
	rep := failClient.Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	trigger, err := conn.ReportFailure(rep.Failure, rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if trigger != rep.Failure.PC {
		t.Errorf("trigger = %d, want failure PC %d", trigger, rep.Failure.PC)
	}

	// Ten successful executions traced at the trigger.
	okClient := core.NewClient(okInst.Mod)
	sent := 0
	for seed := int64(1); sent < 10 && seed < 40; seed++ {
		okRep := okClient.Run(seed, trigger)
		if okRep.Failed() || !okRep.Triggered {
			continue
		}
		if err := conn.SendSuccess(okRep.Snapshot); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	if sent != 10 {
		t.Fatalf("sent %d successful traces", sent)
	}

	d, err := conn.RequestDiagnosis()
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
}

func TestDiagnoseBeforeFailureErrors(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	addr := startServer(t, inst.Mod)
	conn, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.RequestDiagnosis()
	if err == nil || !strings.Contains(err.Error(), "before failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestMalformedFailureRejected(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	addr := startServer(t, inst.Mod)
	conn, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = conn.ReportFailure(nil, nil)
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

	conn := NewConn(a)
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	if _, err := conn.ReportFailure(rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	d, err := conn.RequestDiagnosis()
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
// the complete protocol — failure upload, success uploads, diagnosis —
// against one shared server. Every client ships the same reproduction,
// so every diagnosis must agree; run under -race this covers the
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
	keys := make(chan string, clients)
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			conn, err := Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := conn.ReportFailure(rep.Failure, rep.Snapshot); err != nil {
				errs <- err
				return
			}
			for _, ok := range oks {
				if err := conn.SendSuccess(ok.Snapshot); err != nil {
					errs <- err
					return
				}
			}
			d, err := conn.RequestDiagnosis()
			if err != nil {
				errs <- err
				return
			}
			if d.Best.Pattern == nil {
				errs <- fmt.Errorf("empty diagnosis")
				return
			}
			keys <- d.Best.Pattern.Key()
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	first := <-keys
	for c := 1; c < clients; c++ {
		if k := <-keys; k != first {
			t.Errorf("client diagnoses disagree: %s vs %s", k, first)
		}
	}

	st := srv.Status()
	if st.CompletedDiagnoses != clients {
		t.Errorf("completed = %d, want %d", st.CompletedDiagnoses, clients)
	}
	if st.ActiveDiagnoses != 0 || st.QueuedDiagnoses != 0 {
		t.Errorf("active/queued = %d/%d after drain, want 0/0",
			st.ActiveDiagnoses, st.QueuedDiagnoses)
	}
	if st.CacheHits+st.CacheMisses != clients {
		t.Errorf("cache hits+misses = %d, want %d", st.CacheHits+st.CacheMisses, clients)
	}
	if st.CacheHits == 0 {
		t.Error("identical uploads produced no cache hits")
	}
	if st.DiagnoseTime <= 0 {
		t.Error("no diagnosis wall time recorded")
	}
}

// TestStatusOverWire exercises the "status" request end to end.
func TestStatusOverWire(t *testing.T) {
	inst := corpus.ByID("aget-1").Build(corpus.Variant{Failing: true})
	addr, _ := startServerHandle(t, inst.Mod)
	conn, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

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
	if _, err := conn.ReportFailure(rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.RequestDiagnosis(); err != nil {
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
			conn, err := Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rep := core.NewClient(failInst.Mod).Run(int64(c)+1, ir.NoPC)
			if !rep.Failed() {
				errs <- fmt.Errorf("client %d: no failure", c)
				return
			}
			if _, err := conn.ReportFailure(rep.Failure, rep.Snapshot); err != nil {
				errs <- err
				return
			}
			d, err := conn.RequestDiagnosis()
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

package proto

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/pt"
)

// reproduce builds the bug's failing variant and reproduces one
// failure under trace.
func reproduce(t *testing.T, bugID string) (*corpus.Instance, *core.RunReport) {
	t.Helper()
	inst := corpus.ByID(bugID).Build(corpus.Variant{Failing: true})
	rep := core.NewClient(inst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	return inst, rep
}

// TestRecoverableErrorsKeepConnection: protocol-level rejections must
// not cost the connection — the same conn completes a full diagnosis
// afterwards.
func TestRecoverableErrorsKeepConnection(t *testing.T) {
	inst, rep := reproduce(t, "aget-1")
	addr := startServer(t, inst.Mod)
	conn := dialSession(t, addr)
	ctx := context.Background()

	// Three recoverable rejections in a row.
	if err := conn.Do(ctx, func(c *Conn) error {
		_, err := c.roundTrip(Request{Kind: "frobnicate"})
		return err
	}); err == nil {
		t.Fatal("unknown request accepted")
	}
	if err := conn.Do(ctx, func(c *Conn) error {
		_, _, err := c.Publish("nope", 1, 0)
		return err
	}); err == nil || !strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("publish on an unknown tenant: err = %v", err)
	}
	if _, err := conn.ReportFailure(inst.Mod, nil, nil); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("malformed failure err = %v", err)
	}

	// The same connection still serves a complete conversation.
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatalf("conn did not survive recoverable errors: %v", err)
	}
	d, err := conn.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Scores) == 0 {
		t.Error("no scores after recoverable errors")
	}
	if conn.Retries() != 0 {
		t.Errorf("Retries = %d: a rejection cost the connection", conn.Retries())
	}
}

// bigSnapshot fabricates a snapshot with the given payload size.
func bigSnapshot(bytes int) *pt.Snapshot {
	return &pt.Snapshot{Threads: map[int]pt.SnapshotThread{0: {Data: make([]byte, bytes)}}}
}

func TestOversizeSnapshotRejectedConnSurvives(t *testing.T) {
	inst, rep := reproduce(t, "aget-1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(core.NewServer(inst.Mod))
	srv.MaxSnapshotBytes = 16 << 10
	go srv.Serve(ln)
	conn := dialSession(t, ln.Addr().String())

	// 20 KB snapshot: over the 16 KB cap, well under the frame limit.
	var se *ServerError
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, bigSnapshot(20<<10)); !errors.As(err, &se) ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("oversize failure err = %v", err)
	}
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := conn.SendSuccess(bigSnapshot(20 << 10)); !errors.As(err, &se) {
		t.Fatalf("oversize success err = %v", err)
	}

	// Connection still alive and fully functional.
	st, err := conn.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.OversizeRejects != 2 {
		t.Errorf("OversizeRejects = %d, want 2", st.OversizeRejects)
	}
	if conn.Retries() != 0 {
		t.Errorf("Retries = %d: an oversize reject cost the connection", conn.Retries())
	}
}

func TestFrameLimitKillsConnection(t *testing.T) {
	inst, _ := reproduce(t, "aget-1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(core.NewServer(inst.Mod))
	srv.MaxSnapshotBytes = 4 << 10 // frame limit ≈ 72 KB
	go srv.Serve(ln)

	conn, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A 1 MB message blows the decode-layer frame limit: the server
	// replies why and disconnects.
	_, _, err = conn.UploadBatch("t", 1, 0, "agent-0", 1, []*pt.Snapshot{bigSnapshot(1 << 20)})
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
	// The reply races the close; either the explanation or a transport
	// error is acceptable, but the next call must fail: the conn is dead.
	if _, err := conn.Status(); err == nil {
		t.Fatal("connection survived a frame-limit violation")
	}
	if n := srv.Status().OversizeRejects; n != 1 {
		t.Errorf("OversizeRejects = %d, want 1", n)
	}
}

func TestIdleTimeoutDropsConnection(t *testing.T) {
	inst, _ := reproduce(t, "aget-1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := NewServer(core.NewServer(inst.Mod))
	srv.IdleTimeout = 50 * time.Millisecond
	go srv.Serve(ln)

	conn, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Status().DeadlineDrops == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never deadline-dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := conn.Status(); err == nil {
		t.Error("request succeeded on a deadline-dropped connection")
	}
}

// TestPanicRecovery reports a failure whose PC is outside the module
// — the analysis panics in InstrAt when the case is published — and
// checks the server recovers, replies, and keeps accepting work.
func TestPanicRecovery(t *testing.T) {
	inst, rep := reproduce(t, "aget-1")
	addr, srv := startServerHandle(t, inst.Mod)
	conn := dialSession(t, addr)

	poisoned := *rep.Failure
	poisoned.PC = ir.PC(1 << 30)
	if _, err := conn.ReportFailure(inst.Mod, &poisoned, rep.Snapshot); err != nil {
		t.Fatal(err) // the failure upload itself is fine; the PC detonates later
	}
	var se *ServerError
	if _, err := conn.Diagnose(); !errors.As(err, &se) || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned diagnosis err = %v", err)
	}
	st := srv.Status()
	if st.PanicsRecovered == 0 {
		t.Error("no panic recorded")
	}
	if st.FailedDiagnoses != 1 {
		t.Errorf("FailedDiagnoses = %d, want 1", st.FailedDiagnoses)
	}

	// The same connection — and server — still work.
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Diagnose(); err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	if conn.Retries() != 0 {
		t.Errorf("Retries = %d: the panic cost the connection", conn.Retries())
	}
}

// flakyListener fails the first accepts with a temporary error, then
// delegates.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

type tempErr struct{}

func (tempErr) Error() string   { return "temporary accept failure" }
func (tempErr) Temporary() bool { return true }
func (tempErr) Timeout() bool   { return false }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	inst, rep := reproduce(t, "aget-1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fl := &flakyListener{Listener: ln}
	fl.failures.Store(3)
	srv := NewServer(core.NewServer(inst.Mod))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(fl) }()

	conn := dialSession(t, ln.Addr().String())
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatalf("server died on temporary accept errors: %v", err)
	}
	select {
	case err := <-done:
		t.Fatalf("Serve returned early: %v", err)
	default:
	}
	if fl.failures.Load() >= 0 {
		t.Error("flaky listener never exercised its failures")
	}
}

func TestShutdownDrains(t *testing.T) {
	inst, rep := reproduce(t, "aget-1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(core.NewServer(inst.Mod))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	// One client completes a diagnosis, then idles.
	conn := dialSession(t, ln.Addr().String())
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Diagnose(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v after Shutdown, want nil", err)
	}
	// The drained server refuses new work.
	if _, err := Dial("tcp", ln.Addr().String()); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	if n := srv.Status().OpenConns; n != 0 {
		t.Errorf("OpenConns = %d after Shutdown, want 0", n)
	}
}

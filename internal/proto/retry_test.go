package proto

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/ir"
)

// gatherOKs collects n successful triggered traces for the bug.
func gatherOKs(t *testing.T, bugID string, trigger ir.PC, n int) []*core.RunReport {
	t.Helper()
	okInst := corpus.ByID(bugID).Build(corpus.Variant{Failing: false})
	okClient := core.NewClient(okInst.Mod)
	var oks []*core.RunReport
	for seed := int64(1); len(oks) < n && seed < int64(n*8); seed++ {
		r := okClient.Run(seed, trigger)
		if !r.Failed() && r.Triggered {
			oks = append(oks, r)
		}
	}
	if len(oks) < n {
		t.Fatalf("gathered %d/%d successful traces", len(oks), n)
	}
	return oks
}

// TestRetryClientSessionSurvivesConnectionLoss kills the transport
// mid-session and checks the client reconnects, repeats the request
// that failed — idempotent, so no upload is counted twice or lost —
// and reaches the verdict a direct diagnosis of the same traces gives.
func TestRetryClientSessionSurvivesConnectionLoss(t *testing.T) {
	inst, rep := reproduce(t, "pbzip2-1")
	oks := gatherOKs(t, "pbzip2-1", rep.Failure.PC, 5)
	addr, srv := startServerHandle(t, inst.Mod)

	// Retrying client whose transport is murdered twice mid-session.
	var mu sync.Mutex
	var conns []net.Conn
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	kill := func() {
		mu.Lock()
		conns[len(conns)-1].Close()
		mu.Unlock()
	}
	rc := NewRetryClient(dial, RetryConfig{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer rc.Close()

	if _, err := rc.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	for i, ok := range oks {
		if i == 2 {
			kill() // drop the transport under the client mid-stream
		}
		if err := rc.SendSuccess(ok.Snapshot); err != nil {
			t.Fatalf("success %d: %v", i, err)
		}
	}
	kill() // and again right before the diagnosis request
	got, err := rc.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Retries() == 0 {
		t.Error("no retries recorded despite two killed connections")
	}
	if got.Stats.SuccessTraces != len(oks) {
		t.Errorf("session used %d success traces, want %d", got.Stats.SuccessTraces, len(oks))
	}
	tenant, id := rc.Case()
	assertMatchesCaseTraces(t, srv, inst.Mod, tenant, id, got, len(oks))
}

// TestRetryClientGivesUpEventually: a dead address exhausts the
// attempt budget instead of hanging forever.
func TestRetryClientGivesUpEventually(t *testing.T) {
	rc := DialRetrying("tcp", "127.0.0.1:1", RetryConfig{ // port 1: nothing listens
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	defer rc.Close()
	start := time.Now()
	if _, err := rc.Status(); err == nil {
		t.Fatal("Status succeeded against a dead address")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("give-up took implausibly long")
	}
	if rc.Retries() != 2 {
		t.Errorf("Retries = %d, want 2 (3 attempts = 2 retries)", rc.Retries())
	}
}

// TestRetryClientDoesNotRetryServerRejections: a deterministic server
// "error" reply must surface immediately, not burn the retry budget,
// and a session call before any failure report fails without dialing.
func TestRetryClientDoesNotRetryServerRejections(t *testing.T) {
	inst, _ := reproduce(t, "aget-1")
	addr, _ := startServerHandle(t, inst.Mod)
	rc := DialRetrying("tcp", addr, RetryConfig{MaxAttempts: 8, BaseDelay: time.Millisecond})
	defer rc.Close()

	if _, err := rc.Diagnose(); !errors.Is(err, errNoSession) {
		t.Fatalf("Diagnose before ReportFailure: err = %v, want errNoSession", err)
	}
	if err := rc.SendSuccess(nil); !errors.Is(err, errNoSession) {
		t.Fatalf("SendSuccess before ReportFailure: err = %v, want errNoSession", err)
	}
	var se *ServerError
	if err := rc.Do(context.Background(), func(c *Conn) error {
		_, _, err := c.Publish(ModuleFingerprint(inst.Mod), 1, 0)
		return err
	}); !errors.As(err, &se) || se.Code != CodeUnknownTenant {
		t.Fatalf("publish on an unregistered tenant: err = %v, want an unknown-tenant ServerError", err)
	}
	if rc.Retries() != 0 {
		t.Errorf("Retries = %d after a deterministic rejection, want 0", rc.Retries())
	}
}

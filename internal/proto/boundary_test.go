package proto

import (
	"errors"
	"net"
	"strings"
	"testing"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/wire"
)

// TestCapResolution pins the documented boundary semantics of the
// upload cap and the derived frame limit: zero applies the documented
// default, negative disables the cap, positive passes through.
func TestCapResolution(t *testing.T) {
	tests := []struct {
		name           string
		snapCfg        int64
		wantSnap       int64
		wantFrameLimit int64
	}{
		{"zero-applies-defaults", 0,
			DefaultMaxSnapshotBytes, 2*DefaultMaxSnapshotBytes + wire.FrameSlackBytes},
		{"negative-means-unlimited", -1, 0, 0},
		{"very-negative-means-unlimited", -1 << 40, 0, 0},
		{"positive-passes-through", 4096, 4096, 2*4096 + wire.FrameSlackBytes},
		{"one-byte-cap", 1, 1, 2 + wire.FrameSlackBytes},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := &Server{MaxSnapshotBytes: tt.snapCfg}
			if got := s.maxSnapshotBytes(); got != tt.wantSnap {
				t.Errorf("maxSnapshotBytes() = %d, want %d", got, tt.wantSnap)
			}
			if got := s.frameLimit(); got != tt.wantFrameLimit {
				t.Errorf("frameLimit() = %d, want %d", got, tt.wantFrameLimit)
			}
		})
	}
}

// startCappedServer starts a TCP server with an explicit snapshot cap
// and returns a one-attempt session client on it.
func startCappedServer(t *testing.T, bugID string, snapCap int64) (*RetryClient, *Server, *corpus.Instance, *core.RunReport) {
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
	return dialSession(t, ln.Addr().String()), srv, inst, rep
}

// TestSnapshotCapBoundary: a snapshot whose payload is exactly the cap
// is accepted; one byte more is rejected, counted, and costs nothing
// but the request.
func TestSnapshotCapBoundary(t *testing.T) {
	const cap = 8 << 10
	conn, srv, inst, rep := startCappedServer(t, "aget-1", cap)

	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := conn.SendSuccess(bigSnapshot(cap)); err != nil {
		t.Fatalf("snapshot exactly at the %d-byte cap rejected: %v", cap, err)
	}
	var se *ServerError
	if err := conn.SendSuccess(bigSnapshot(cap + 1)); !errors.As(err, &se) ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("snapshot one byte over the cap: err = %v, want a cap ServerError", err)
	}
	if n := srv.Status().OversizeRejects; n != 1 {
		t.Errorf("OversizeRejects = %d, want 1", n)
	}
	// The at-cap boundary holds for failure uploads too.
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, bigSnapshot(cap)); err != nil {
		t.Fatalf("at-cap failure snapshot rejected: %v", err)
	}
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, bigSnapshot(cap+1)); !errors.As(err, &se) {
		t.Fatalf("over-cap failure snapshot: err = %v, want ServerError", err)
	}
}

// TestNegativeCapsUnlimited: a negative setting disables the snapshot
// cap — and with it the frame limit — and oversize accounting stays
// untouched.
func TestNegativeCapsUnlimited(t *testing.T) {
	conn, srv, inst, rep := startCappedServer(t, "aget-1", -1)
	if _, err := conn.ReportFailure(inst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	// With the byte cap off the frame limit is off too: this connection
	// accepts what a default-capped one kills (see
	// TestFrameLimitKillsConnection).
	if err := conn.SendSuccess(bigSnapshot(1 << 20)); err != nil {
		t.Fatalf("1 MB snapshot rejected with caps disabled: %v", err)
	}
	if n := srv.Status().OversizeRejects; n != 0 {
		t.Errorf("OversizeRejects = %d with caps disabled, want 0", n)
	}
	if _, err := conn.Diagnose(); err != nil {
		t.Fatalf("diagnosis failed over an uncapped upload: %v", err)
	}
}

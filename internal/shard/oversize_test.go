package shard_test

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"snorlax/internal/corpus"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
	"snorlax/internal/shard"
	"snorlax/internal/wire"
)

func paddedSnapshot(n int) *pt.Snapshot {
	return &pt.Snapshot{Threads: map[int]pt.SnapshotThread{0: {Data: make([]byte, n)}}}
}

// TestRouterOversizeSemanticsPerCodec holds the router to the exact
// oversize semantics of the analysis server: a snapshot at the cap
// routes through and is admitted, one byte over draws the shard's
// deterministic rejection with the client connection surviving the
// hop, a frame-limit breach draws the router's own "error" reply and
// then the connection closes, and a torn frame or a connection without
// a preamble is closed silently while the router keeps serving.
func TestRouterOversizeSemanticsPerCodec(t *testing.T) {
	const cap = 8 << 10
	shards := startShards(t, 2, func(srv *proto.Server) { srv.MaxSnapshotBytes = cap })
	router, addr := startRouter(t, shard.RouterConfig{
		Members:    members(shards),
		FrameLimit: wire.Limits{MaxSnapshotBytes: cap}.FrameLimit(),
	})
	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := reproduce(t, failInst.Mod)
	pc := rep.Failure.PC

	c := dialConn(t, addr)
	tenant, err := c.Register(ir.Print(failInst.Mod))
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(tenant, rep.Failure, rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	const agent = "agent-0"

	// At the cap: routed to the owner and admitted.
	accepted, _, err := c.UploadBatch(tenant, caseID, pc, agent, 1, []*pt.Snapshot{paddedSnapshot(cap)})
	if err != nil || accepted != 1 {
		t.Fatalf("at-cap batch = (%d, %v), want (1, nil)", accepted, err)
	}
	// One byte over: the shard's semantic rejection crosses the hop and
	// the connection stays usable.
	if _, _, err := c.UploadBatch(tenant, caseID, pc, agent, 2, []*pt.Snapshot{paddedSnapshot(cap + 1)}); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("cap+1 batch: err = %v, want the shard's cap rejection", err)
	}
	if _, err := c.Directives(tenant); err != nil {
		t.Fatalf("connection did not survive a semantic oversize reject: %v", err)
	}
	// Frame-limit breach: the router itself replies and closes, exactly
	// like the server (the reply can race the close).
	if _, _, err := c.UploadBatch(tenant, caseID, pc, agent, 3, []*pt.Snapshot{paddedSnapshot(1 << 20)}); err == nil {
		t.Fatal("frame-limit breach accepted through the router")
	}
	if _, err := c.Directives(tenant); err == nil {
		t.Fatal("connection survived a frame-limit breach")
	}

	// Torn frame: transport-class, no reply.
	var torn bytes.Buffer
	w := wire.NewWriter(&torn)
	w.Preamble(wire.Version1)
	w.Frame(wire.FrameRequest, make([]byte, 100))
	w.Flush()
	expectSilence(t, addr, torn.Bytes()[:torn.Len()-40])
	// No preamble: not this protocol — closed unanswered and counted.
	expectSilence(t, addr, []byte("GET / HTTP/1.0\r\n\r\n"))
	if m := router.Metrics().Find(proto.MetricWireFrameErrors, obs.L("kind", "header")); m == nil || m.Counter.Value() != 1 {
		t.Errorf("router header frame errors = %v after a preamble-less connection, want 1", m)
	}
	if _, err := dialConn(t, addr).Directives(tenant); err != nil {
		t.Fatalf("router unusable after a torn frame and a preamble-less peer: %v", err)
	}
}

// expectSilence sends raw bytes on a fresh connection, half-closes it
// and requires the router to close without replying.
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
		t.Fatalf("%q drew a %d-byte reply from the router, want silence", raw, len(got))
	}
}

// Package proto implements the client↔server protocol of the deployed
// system (Figure 2): production clients stream failure reports and
// trace snapshots to an analysis server; the server arms trace
// triggers for successful executions and returns diagnoses. There is
// one protocol, the fleet protocol (fleet.go): a failure report opens
// or joins the case of its (program, failure PC), and a single
// client's diagnosis session is such a case like any other
// (RetryClient, retry.go).
//
// Messages travel over any net.Conn in the length-prefixed binary
// wire format (internal/wire): CRC32C-checksummed frames, explicit
// per-field encoding, and streaming snapshot upload — a request's
// ring bytes follow its envelope as bounded chunk frames, which the
// server assembles into the snapshot's rings while it is still
// arriving; pt packets are parsed only when a diagnosis decodes a
// ring. A connection opens with a 5-byte preamble whose
// version byte negotiates the format; a peer that sends none is closed
// unanswered. Protocol state lives in the server's cases, never in a
// connection, so any request can be retried on a fresh connection.
// Each connection runs in its own goroutine; diagnoses are bounded by
// a server-wide semaphore so a burst of clients queues instead of
// oversubscribing the host.
//
// Connections are served by ConnServer (serve.go), the core the shard
// router shares: per-message read and write deadlines, a per-message
// byte cap enforced before a request is even decoded, panic recovery
// around every handler, backoff on transient accept errors, and a
// graceful drain that lets in-flight diagnoses finish. The server adds
// the per-snapshot byte cap; the per-case quota bounds how many
// success traces a case holds. Recoverable
// protocol errors ("unknown request", an oversize snapshot) get an
// "error" reply and the connection keeps serving; transport and
// decode failures disconnect.
package proto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/pt"
	"snorlax/internal/store"
	"snorlax/internal/wire"
)

// Request is a client→server message.
type Request struct {
	// Kind is "status", or one of the fleet kinds "register",
	// "fleet-failure", "directives", "batch", "report" and "publish"
	// (see fleet.go).
	Kind string
	// Failure and Snapshot accompany "fleet-failure" requests.
	Failure  *core.FailureReport
	Snapshot *pt.Snapshot
	// ModuleText is the canonical IR text of the program being
	// registered ("register" requests).
	ModuleText string
	// Tenant scopes fleet requests to a registered program.
	Tenant TenantID
	// Case identifies the diagnosis case ("batch", "report",
	// "publish").
	Case CaseID
	// Client names the uploading agent and Seq is the 1-based sequence
	// number of Snapshots[0] in that agent's per-case upload stream;
	// together they deduplicate replayed batches ("batch" requests).
	Client string
	Seq    uint64
	// Snapshots carries a batch of triggered success snapshots
	// ("batch" requests).
	Snapshots []*pt.Snapshot
	// RoutePC is the case's trigger (failure) PC, which together with
	// Tenant forms the consistent-hash routing key of a sharded
	// deployment. Every "batch", "report" and "publish" request
	// carries it; the server itself ignores it, and the shard router
	// routes by it.
	RoutePC ir.PC
}

// Response is a server→client message.
type Response struct {
	// Kind is "status" or "error", or one of the fleet kinds
	// "registered", "case", "directives", "batch" and "report" (the
	// reply to both "report" and "publish" requests).
	Kind string
	// Diagnosis accompanies "report" responses (nil while the case is
	// still collecting or being diagnosed).
	Diagnosis *core.Diagnosis
	// Status accompanies "status" responses.
	Status *ServerStatus
	// Err describes "error" responses; Code, when set, classifies
	// them machine-readably (see the Code* constants) so a router can
	// distinguish "this shard does not own that case" from a real
	// rejection without parsing prose.
	Err  string
	Code string
	// Tenant and Case echo the fleet scope ("registered", "case",
	// "directives", "batch", "report" responses).
	Tenant TenantID
	Case   CaseID
	// Directives carries the armed collection directives ("case" and
	// "directives" responses).
	Directives []Directive
	// Accepted counts batch snapshots newly admitted toward the quota;
	// Done reports whether the case's diagnosis is published ("case",
	// "batch" and "report" responses).
	Accepted int
	Done     bool
	// Seq, on "batch" responses, is the uploading client's ledger
	// high-water mark after this batch — the highest sequence number
	// credited toward the quota for this (client, case). Replays
	// return the same mark as the original, so an agent whose reply
	// was lost in transit reconciles its accepted count against Seq
	// instead of double- or under-counting. 0 means no mark is
	// available (the case closed and its ledger was pruned, and this
	// is not a replay of the client's last accepting batch).
	Seq uint64
}

// Machine-readable error codes on "error" responses.
const (
	// CodeUnknownTenant rejects a fleet request naming a tenant this
	// server has not registered.
	CodeUnknownTenant = "unknown-tenant"
	// CodeUnknownCase rejects a fleet request naming a case this
	// server has not opened.
	CodeUnknownCase = "unknown-case"
)

// ServerError is an "error" reply from the server: a deterministic
// protocol-level rejection (unknown request, oversize snapshot,
// failed diagnosis), not a transport failure. Retrying clients do not
// retry these — resending the same request would be rejected again.
type ServerError struct {
	Msg string
	// Code classifies the rejection when the server set one (the
	// Code* constants); "" otherwise.
	Code string
}

func (e *ServerError) Error() string { return "proto: server: " + e.Msg }

// ServerStatus is the server's concurrency and pipeline state — the
// operational counters behind the queue-depth, cache and degradation
// questions an operator asks of a loaded diagnosis server.
type ServerStatus struct {
	// OpenConns counts currently connected clients.
	OpenConns int64
	// ActiveDiagnoses counts diagnoses running right now.
	ActiveDiagnoses int64
	// QueuedDiagnoses counts diagnoses waiting on the semaphore.
	QueuedDiagnoses int64
	// CompletedDiagnoses and FailedDiagnoses are cumulative.
	CompletedDiagnoses uint64
	FailedDiagnoses    uint64
	// MaxConcurrent is the effective diagnosis semaphore width.
	MaxConcurrent int
	// Workers is the core server's success-trace pool size.
	Workers int
	// CacheHits and CacheMisses are the core server's cumulative
	// points-to cache counters.
	CacheHits, CacheMisses uint64
	// DiagnoseTime is cumulative wall time spent inside Diagnose.
	DiagnoseTime time.Duration
	// DroppedSuccesses counts success traces the core server skipped
	// as undecodable during degraded-mode diagnosis.
	DroppedSuccesses uint64
	// DeadlineDrops counts connections dropped for blowing a read or
	// write deadline.
	DeadlineDrops uint64
	// OversizeRejects counts messages and snapshots rejected for
	// exceeding the configured byte caps.
	OversizeRejects uint64
	// PanicsRecovered counts panics caught in connection handlers and
	// diagnoses — poisoned traces that would otherwise have killed
	// the server.
	PanicsRecovered uint64
}

// DefaultMaxSnapshotBytes caps the total ring bytes of one uploaded
// snapshot. A 64 KB-per-thread ring snapshot from a program with a few
// dozen threads is a few MB; the default leaves an order of magnitude
// of headroom while still stopping a runaway client long before the
// server's memory is at stake. The rule itself — both its tiers —
// lives in wire.Limits, shared with the shard router.
const DefaultMaxSnapshotBytes = wire.DefaultMaxSnapshotBytes

// Server is the analysis server: it serves the fleet protocol for
// every registered program.
type Server struct {
	// Core is the template of every tenant's analysis server: tenants
	// copy its Workers, PT and MaxSuccessTraces, and share its metrics
	// registry. Its own module is never diagnosed and may be nil.
	Core *core.Server
	// MaxConcurrent bounds simultaneous Diagnose calls across all
	// connections; 0 means runtime.GOMAXPROCS(0). Further requests
	// queue (and are counted as queued in the status response).
	MaxConcurrent int
	// IdleTimeout bounds how long the server waits for the next
	// request on an open connection; 0 means wait forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; 0 means no deadline.
	WriteTimeout time.Duration
	// MaxSnapshotBytes caps the total ring bytes of one uploaded
	// snapshot; 0 means DefaultMaxSnapshotBytes, negative means
	// unlimited. A snapshot over the cap (but within the decode-layer
	// frame limit) gets an "error" reply and the connection keeps
	// serving; a message so large it trips the frame limit gets the
	// reply and then the connection closes.
	MaxSnapshotBytes int64
	// FleetQuota is the per-case success-trace quota;
	// 0 means DefaultFleetQuota (the paper's 10×).
	FleetQuota int
	// CaseBase offsets this server's case numbering: the first case
	// opened gets CaseBase+1. In a sharded deployment each shard gets
	// a disjoint base (say shard i << 32), so case ids are unique
	// fleet-wide and a merged directive listing is unambiguous.
	CaseBase uint64
	// DisableRegistration rejects client "register" requests, limiting
	// the server to programs pre-registered with RegisterProgram.
	DisableRegistration bool
	// Store, when non-nil, is the durable case store: every fleet
	// state transition (registration, case open, trace accept, quota,
	// publish, close) is logged to it before being acknowledged to a
	// client, and Shutdown flushes and closes it before returning. nil
	// keeps fleet state in memory only. Set it — and Restore the
	// recovered state — before serving.
	Store store.Store

	once sync.Once
	sem  chan struct{}

	// fleetMu guards the tenant registry and every case inside it
	// (see fleet.go).
	fleetMu sync.Mutex
	tenants map[TenantID]*tenant

	// om holds the registry handles every operational counter lives
	// in; the registry itself belongs to Core, so protocol, pipeline
	// and cache metrics scrape as one surface (see obs.go). Status()
	// is a read-only view over these handles.
	om *protoMetrics
	// conns is the serving core: accept loop, drain, negotiation.
	conns *ConnServer

	// restored flips when Restore completes; Ready gates on it for
	// servers with a durable store.
	restored atomic.Bool
}

// NewServer wraps a core analysis server.
func NewServer(c *core.Server) *Server { return &Server{Core: c} }

func (s *Server) init() {
	s.once.Do(func() {
		n := s.MaxConcurrent
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		s.MaxConcurrent = n
		s.sem = make(chan struct{}, n)
		s.om = newProtoMetrics(s.Core.Metrics())
		s.conns = NewConnServer(s.Core.Metrics())
		s.om.maxConcurrent.Set(int64(n))
		workers := s.Core.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		s.om.workers.Set(int64(workers))
	})
}

// Metrics returns the registry behind the server's counters — the
// same one core.Server.Metrics() yields — after ensuring the protocol
// metrics are registered on it.
func (s *Server) Metrics() *obs.Registry {
	s.init()
	return s.Core.Metrics()
}

func (s *Server) maxSnapshotBytes() int64 {
	return wire.Limits{MaxSnapshotBytes: s.MaxSnapshotBytes}.SnapshotCap()
}

// frameLimit is the decode-layer cap on one message: past this, the
// connection dies rather than the server's heap. The two-tier rule is
// wire.Limits, shared verbatim with the shard router.
func (s *Server) frameLimit() int64 {
	return wire.Limits{MaxSnapshotBytes: s.MaxSnapshotBytes}.FrameLimit()
}

// snapshotBytes totals a snapshot's ring payload.
func snapshotBytes(snap *pt.Snapshot) int64 {
	if snap == nil {
		return 0
	}
	var n int64
	for _, th := range snap.Threads {
		n += int64(len(th.Data))
	}
	return n
}

// diagnose runs one bounded diagnosis on a tenant's analysis server,
// maintaining the queue/active counters the status response reports.
// A panicking diagnosis — a poisoned failing trace driving the
// analysis somewhere impossible — is recovered into an error so the
// connection (and server) survive.
func (s *Server) diagnose(cs *core.Server, failing *core.RunReport, successes []*core.RunReport) (d *core.Diagnosis, err error) {
	s.init()
	s.om.queued.Inc()
	s.sem <- struct{}{}
	s.om.queued.Dec()
	s.om.active.Inc()
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			s.om.panicsRecovered.Inc()
			d, err = nil, fmt.Errorf("diagnosis panicked: %v", p)
		}
		s.om.diagnoseSeconds.ObserveDuration(time.Since(start))
		s.om.active.Dec()
		<-s.sem
		if err != nil {
			s.om.failed.Inc()
		} else {
			s.om.completed.Inc()
		}
	}()
	return cs.Diagnose(failing, successes)
}

// Status snapshots the server's counters. Every field is read from
// the metrics registry (directly, or through the core server's
// registry-backed accessors), so a status reply and a /metrics scrape
// of a quiesced server always agree — the consistency the obs test
// suite asserts.
func (s *Server) Status() ServerStatus {
	s.init()
	hits, misses := s.Core.CacheStats()
	return ServerStatus{
		OpenConns:          s.om.openConns.Value(),
		ActiveDiagnoses:    s.om.active.Value(),
		QueuedDiagnoses:    s.om.queued.Value(),
		CompletedDiagnoses: s.om.completed.Value(),
		FailedDiagnoses:    s.om.failed.Value(),
		MaxConcurrent:      int(s.om.maxConcurrent.Value()),
		Workers:            int(s.om.workers.Value()),
		CacheHits:          hits,
		CacheMisses:        misses,
		DiagnoseTime:       s.om.diagnoseSeconds.SumDuration(),
		DroppedSuccesses:   s.Core.DroppedSuccessCount(),
		DeadlineDrops:      s.om.deadlineDrops.Value(),
		OversizeRejects:    s.om.oversizeRejects.Value(),
		PanicsRecovered:    s.om.panicsRecovered.Value(),
	}
}

// Ready reports whether the server can usefully accept traffic: it
// is not draining, recovery (Restore) has completed when a durable
// store is configured, and the store has not been poisoned by a
// write error. The error says which condition failed — the payload
// of the /readyz endpoint and the router's health checks.
func (s *Server) Ready() error {
	s.init()
	if s.conns.Draining() {
		return errors.New("proto: server is draining")
	}
	if s.Store != nil {
		if !s.restored.Load() {
			return errors.New("proto: durable state not yet restored")
		}
		if err := s.Store.Err(); err != nil {
			return fmt.Errorf("proto: durable store poisoned: %w", err)
		}
	}
	return nil
}

// Serve accepts connections until the listener closes or Shutdown is
// called (see ConnServer.Serve).
func (s *Server) Serve(ln net.Listener) error {
	s.init()
	return s.conns.Serve(ln, s.connHandler())
}

// Shutdown stops accepting new connections and drains the server:
// idle connections are closed immediately, connections serving a
// request (a running diagnosis) are allowed to finish it, after which
// their handlers exit. Once drained — or once ctx expires and the
// stragglers are force-closed — the durable store (if any) is flushed,
// fsynced and closed, so every transition the server acknowledged is
// on disk before Shutdown returns. Shutdown returns nil after a clean
// drain with a clean flush; otherwise the drain and store errors are
// joined.
func (s *Server) Shutdown(ctx context.Context) error {
	s.init()
	err := s.conns.Shutdown(ctx)
	if s.Store == nil {
		return err
	}
	// Store errors — including a sticky error from an earlier append
	// or background flush nobody was positioned to see — join the
	// drain error rather than being masked by it.
	return errors.Join(err, s.Store.Flush(), s.Store.Close())
}

// connHandler plugs the server into the serving core. A connection
// carries no state of its own; each request is assembled (its rings
// filled in as the chunks arrive) and served, its count and
// latency recorded before the reply is flushed, so a client holding an
// answer always sees its request counted.
func (s *Server) connHandler() ConnHandler {
	return ConnHandler{
		IdleTimeout:  s.IdleTimeout,
		WriteTimeout: s.WriteTimeout,
		FrameLimit:   s.frameLimit(),
		RxBytes:      s.om.rxBytes,
		TxBytes:      s.om.txBytes,
		Open: func(c *ClientConn) (func(*RequestEnvelope) error, func()) {
			return func(env *RequestEnvelope) error {
				if err := env.Assemble(c.Reader()); err != nil {
					return err
				}
				start := time.Now()
				var werr error
				reply := func(resp Response) bool {
					s.om.observeRequest(env.Req.Kind, time.Since(start))
					werr = c.Reply(&resp)
					return werr == nil
				}
				if !s.serveRequest(env.Req, reply) {
					return werr
				}
				return nil
			}, nil
		},
	}
}

// Conn is one client connection to an analysis server or a shard
// router. It sends the wire preamble before its first frame.
type Conn struct {
	conn         net.Conn
	w            *wire.Writer
	r            *wire.Reader
	preambleSent bool
}

// Dial connects to an analysis server or a shard router.
func Dial(network, addr string) (*Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// NewConn wraps an established connection (e.g. one side of
// net.Pipe in tests).
func NewConn(c net.Conn) *Conn {
	return &Conn{
		conn: c,
		w:    wire.NewWriter(c),
		// No read limit client-side: the server is the trusted peer.
		r: wire.NewReader(bufio.NewReaderSize(c, 32<<10), 0),
	}
}

// Close closes the underlying connection and returns the codec's
// pooled buffers.
func (c *Conn) Close() error {
	if c.w != nil {
		c.w.Release()
		c.r.Release()
		c.w, c.r = nil, nil
	}
	return c.conn.Close()
}

// SetDeadline bounds the next reads and writes on the underlying
// connection; retrying clients use it to turn a stalled peer into a
// retryable timeout.
func (c *Conn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// preamble queues the wire preamble ahead of the connection's first
// frame.
func (c *Conn) preamble() {
	if !c.preambleSent {
		c.w.Preamble(wire.Version1)
		c.preambleSent = true
	}
}

// send frames one request and flushes it.
func (c *Conn) send(req *Request) error {
	c.preamble()
	if err := writeBinaryRequest(c.w, req); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *Conn) roundTrip(req Request) (Response, error) {
	resp, err := c.RoundTrip(req)
	if err == nil && resp.Kind == "error" {
		return resp, &ServerError{Msg: resp.Err, Code: resp.Code}
	}
	return resp, err
}

// RoundTrip sends one raw request and decodes one response — the
// forwarding primitive the shard router is built on. Unlike the typed
// client methods, a server "error" reply is returned as the Response
// with a nil error, so a forwarder can relay it to its own client
// verbatim; a non-nil error always means the transport or the frame
// stream failed and the connection is unusable.
func (c *Conn) RoundTrip(req Request) (Response, error) {
	if err := c.send(&req); err != nil {
		return Response{}, err
	}
	return readBinaryResponse(c.r)
}

// RelayRaw sends a pre-framed request — an envelope and its chunk
// frames captured verbatim on another connection — and returns the
// raw payload of the one response frame (valid until the next read on
// this connection). It is the shard router's zero-copy forwarding
// primitive: the message is neither decoded nor re-framed at the hop,
// the sender's checksums cross untouched, and the reply can be relayed
// byte-identically too. Like RoundTrip, a server "error" reply is a
// payload with a nil error.
func (c *Conn) RelayRaw(raw []byte) ([]byte, error) {
	c.preamble()
	if err := c.w.Raw(raw); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := c.r.Next()
	if err != nil {
		return nil, err
	}
	if typ != wire.FrameResponse {
		return nil, fmt.Errorf("%w: frame type 0x%02x where a response was expected", wire.ErrDecode, typ)
	}
	return payload, nil
}

// Status asks the server for its concurrency and cache counters.
func (c *Conn) Status() (ServerStatus, error) {
	resp, err := c.roundTrip(Request{Kind: "status"})
	if err != nil {
		return ServerStatus{}, err
	}
	if resp.Kind != "status" || resp.Status == nil {
		return ServerStatus{}, fmt.Errorf("proto: unexpected response %q", resp.Kind)
	}
	return *resp.Status, nil
}

package proto

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"snorlax/internal/obs"
	"snorlax/internal/wire"
)

// ConnServer is the conn-serving core shared by the analysis server
// and the shard router. It owns everything about a client connection
// except what its requests mean: the accept loop with transient-error
// backoff, listener and connection tracking, the idle-first drain,
// the idle read deadline, preamble and version negotiation, per-
// connection panic recovery, and the rule that a message past the
// frame limit earns an "error" reply and then the close. An endpoint
// plugs in a ConnHandler; the core reads each request's envelope
// frame and hands it over.
type ConnServer struct {
	m *connMetrics

	// shutdown flips once Shutdown begins; connections exit between
	// requests and Serve loops return instead of re-accepting.
	shutdown atomic.Bool
	// mu guards the listener and connection registries Shutdown
	// drains.
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*ClientConn]struct{}
}

// ConnHandler is what an endpoint plugs into a ConnServer: its
// per-connection limits and its per-request handler.
type ConnHandler struct {
	// IdleTimeout bounds the wait for the preamble and for each next
	// request; 0 waits forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write; 0 means no deadline.
	WriteTimeout time.Duration
	// FrameLimit caps one message's bytes, envelope plus declared ring
	// bytes (0 = unlimited; see wire.Limits).
	FrameLimit int64
	// RxBytes and TxBytes, when set, count every byte read from and
	// written to client connections.
	RxBytes, TxBytes *obs.Counter
	// Open starts one negotiated connection. It returns the handler
	// for each of the connection's requests and, optionally, a cleanup
	// run when the connection ends. serve receives the request's
	// envelope with its chunk frames still on the wire and must
	// consume them (env.Assemble, or a raw relay). A nil error keeps
	// the connection serving; any error closes it.
	Open func(c *ClientConn) (serve func(env *RequestEnvelope) error, done func())
}

// ClientConn is one client connection as the serving core sees it.
// busy is set while a request is being served, so a drain closes only
// idle connections and lets in-flight work finish.
type ClientConn struct {
	nc           net.Conn
	r            *wire.Reader
	w            *wire.Writer
	writeTimeout time.Duration
	busy         atomic.Bool
}

// connMetrics are the core's registry handles. The registry is
// idempotent, so an endpoint registering the same names (the analysis
// server's status view) shares these very counters.
type connMetrics struct {
	openConns       *obs.Gauge
	deadlineDrops   *obs.Counter
	oversizeRejects *obs.Counter
	panicsRecovered *obs.Counter
	acceptRetries   *obs.Counter
	frameErrors     map[string]*obs.Counter
}

// NewConnServer returns a serving core that registers its metrics on
// reg.
func NewConnServer(reg *obs.Registry) *ConnServer {
	m := &connMetrics{
		openConns:       reg.Gauge(MetricOpenConns, helpOpenConns),
		deadlineDrops:   reg.Counter(MetricDeadlineDrops, helpDeadlineDrops),
		oversizeRejects: reg.Counter(MetricOversizeRejects, helpOversizeRejects),
		panicsRecovered: reg.Counter(MetricPanicsRecovered, helpPanicsRecovered),
		acceptRetries: reg.Counter(MetricAcceptRetries,
			"Transient listener Accept errors retried with backoff."),
		frameErrors: make(map[string]*obs.Counter, len(frameErrorKinds)),
	}
	for _, kind := range frameErrorKinds {
		m.frameErrors[kind] = reg.Counter(MetricWireFrameErrors,
			"Frames rejected or failed, by failure kind.", obs.L("kind", kind))
	}
	return &ConnServer{
		m:         m,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*ClientConn]struct{}),
	}
}

// Draining reports whether Shutdown has begun.
func (cs *ConnServer) Draining() bool { return cs.shutdown.Load() }

// Serve accepts connections until the listener closes or Shutdown is
// called, serving each with h. Transient accept errors (in the
// net.Error Temporary sense — EMFILE, ECONNABORTED) back off with
// capped exponential delay and retry, mirroring net/http; only
// persistent errors return.
func (cs *ConnServer) Serve(ln net.Listener, h ConnHandler) error {
	if !cs.track(func() { cs.listeners[ln] = struct{}{} }) {
		ln.Close()
		return nil
	}
	defer cs.untrack(func() { delete(cs.listeners, ln) })
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if cs.shutdown.Load() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				cs.m.acceptRetries.Inc()
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		go cs.serveConn(conn, h)
	}
}

// Shutdown stops accepting new connections and drains: idle
// connections close immediately, connections serving a request finish
// it, after which they exit. It returns nil once drained, or ctx's
// error after force-closing the stragglers when ctx expires first.
func (cs *ConnServer) Shutdown(ctx context.Context) error {
	cs.shutdown.Store(true)
	cs.mu.Lock()
	for ln := range cs.listeners {
		ln.Close()
	}
	cs.mu.Unlock()

	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		if cs.closeIdleConns() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			cs.mu.Lock()
			for c := range cs.conns {
				c.nc.Close()
			}
			cs.mu.Unlock()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// closeIdleConns closes every tracked connection not currently serving
// a request and returns how many connections remain tracked.
func (cs *ConnServer) closeIdleConns() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for c := range cs.conns {
		if !c.busy.Load() {
			c.nc.Close()
		}
	}
	return len(cs.conns)
}

// track runs add under the registry lock unless the core is draining.
func (cs *ConnServer) track(add func()) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.shutdown.Load() {
		return false
	}
	add()
	return true
}

func (cs *ConnServer) untrack(remove func()) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	remove()
}

// serveConn serves one accepted connection with h until the peer
// leaves, a request fails, or the core drains. A peer that sends no
// preamble is closed without a reply.
func (cs *ConnServer) serveConn(nc net.Conn, h ConnHandler) {
	c := &ClientConn{nc: nc, writeTimeout: h.WriteTimeout}
	if !cs.track(func() { cs.conns[c] = struct{}{} }) {
		nc.Close()
		return
	}
	defer cs.untrack(func() { delete(cs.conns, c) })
	cs.m.openConns.Inc()
	defer cs.m.openConns.Dec()
	defer nc.Close()

	var rd io.Reader = nc
	var wr io.Writer = nc
	if h.RxBytes != nil {
		rd = &countingReader{r: nc, c: h.RxBytes}
	}
	if h.TxBytes != nil {
		wr = &countingWriter{w: nc, c: h.TxBytes}
	}
	br := bufio.NewReaderSize(rd, 32<<10)
	c.armIdle(h.IdleTimeout)
	version, err := wire.ReadPreamble(br)
	if err != nil {
		cs.fail(c, err)
		return
	}
	c.r = wire.NewReader(br, h.FrameLimit)
	defer c.r.Release()
	c.w = wire.NewWriter(wr)
	defer c.w.Release()
	if version != wire.Version1 {
		c.Reply(&Response{Kind: "error", Err: fmt.Sprintf("unsupported wire version 0x%02x", version)})
		return
	}
	// Last-resort panic recovery: a request that drives a handler
	// somewhere impossible costs its own connection, never the process.
	defer func() {
		if p := recover(); p != nil {
			cs.m.panicsRecovered.Inc()
			c.Reply(&Response{Kind: "error", Err: fmt.Sprintf("internal error: %v", p)})
		}
	}()
	serve, done := h.Open(c)
	if done != nil {
		defer done()
	}
	for !cs.shutdown.Load() {
		c.armIdle(h.IdleTimeout)
		env, err := readEnvelope(c.r, h.FrameLimit)
		if err == nil {
			c.busy.Store(true)
			err = serve(env)
			c.busy.Store(false)
		}
		if err != nil {
			cs.fail(c, err)
			return
		}
	}
}

// fail accounts for the error that is closing c. A frame-limit breach
// is a deterministic protocol violation, so the peer is told why
// before the close; every other failure closes silently.
func (cs *ConnServer) fail(c *ClientConn, err error) {
	switch {
	case errors.Is(err, wire.ErrFrameTooLarge):
		cs.m.oversizeRejects.Inc()
		cs.m.frameErrors[frameErrLimit].Inc()
		c.Reply(&Response{Kind: "error", Err: "message exceeds frame limit"})
	case errors.Is(err, wire.ErrPayloadCorrupt):
		cs.m.frameErrors[frameErrPayload].Inc()
	case errors.Is(err, wire.ErrHeaderCorrupt), errors.Is(err, wire.ErrNoPreamble):
		cs.m.frameErrors[frameErrHeader].Inc()
	case errors.Is(err, wire.ErrDecode):
		cs.m.frameErrors[frameErrDecode].Inc()
	case isTimeout(err):
		cs.m.deadlineDrops.Inc()
	case errors.Is(err, io.ErrUnexpectedEOF):
		cs.m.frameErrors[frameErrTruncated].Inc()
	}
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (c *ClientConn) armIdle(d time.Duration) {
	if d > 0 {
		c.nc.SetReadDeadline(time.Now().Add(d))
	}
}

// Reader returns the connection's frame reader — where a request's
// chunk frames are read from.
func (c *ClientConn) Reader() *wire.Reader { return c.r }

// Reply frames and flushes one response under the write timeout.
func (c *ClientConn) Reply(resp *Response) error {
	c.armWrite()
	defer c.disarmWrite()
	return writeBinaryResponse(c.w, resp)
}

// ReplyRaw sends a response payload received verbatim from another
// connection (the router's relay), under the write timeout.
func (c *ClientConn) ReplyRaw(payload []byte) error {
	c.armWrite()
	defer c.disarmWrite()
	if err := c.w.Frame(wire.FrameResponse, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *ClientConn) armWrite() {
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

func (c *ClientConn) disarmWrite() {
	if c.writeTimeout > 0 {
		c.nc.SetWriteDeadline(time.Time{})
	}
}

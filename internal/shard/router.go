package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/wire"
)

// Router metric names (Prometheus conventions: _total for counters).
const (
	// MetricRouterRequests counts client requests by kind.
	MetricRouterRequests = "snorlax_router_requests_total"
	// MetricRouterForwards counts requests forwarded per shard.
	MetricRouterForwards = "snorlax_router_forwards_total"
	// MetricRouterRetries counts forwarding retries per shard — the
	// router-side degradation counter; zero means no shard ever made
	// the router ask twice.
	MetricRouterRetries = "snorlax_router_forward_retries_total"
	// MetricRouterDroppedConns counts client connections the router
	// dropped because a shard stayed unreachable through the whole
	// retry budget. Dropping the transport (rather than replying
	// "error") keeps the client's own reconnect-and-retry loop alive:
	// fleet clients treat error replies as deterministic rejections.
	MetricRouterDroppedConns = "snorlax_router_dropped_conns_total"
	// MetricRouterShardUp is 1 while the shard's last health probe
	// succeeded, 0 after it failed.
	MetricRouterShardUp = "snorlax_router_shard_up"
	// MetricRouterHealthFails counts failed health probes per shard.
	MetricRouterHealthFails = "snorlax_router_health_check_failures_total"
)

// Member is one shard behind the router.
type Member struct {
	// Name is the shard's stable ring identity. It must survive
	// crashes and restarts — placement hashes the name, so a renamed
	// shard is a different shard and its keys move.
	Name string
	// Addr is the shard's fleet wire address (host:port).
	Addr string
	// HealthURL, when set, is the shard's readiness probe (the
	// /readyz endpoint of its debug mux); the router polls it and
	// exports the result. "" falls back to a plain dial probe.
	HealthURL string
}

// RouterConfig configures a Router.
type RouterConfig struct {
	// Members are the shards. Placement is a pure function of their
	// names, so every router replica configured with the same set
	// routes identically.
	Members []Member
	// Vnodes is the ring's points-per-member (0 = DefaultVnodes).
	Vnodes int
	// Dial opens a connection to a shard address. nil means net.Dial
	// ("tcp"); tests inject fault-wrapped dialers here.
	Dial func(addr string) (net.Conn, error)
	// Retry configures forwarding: each client connection reaches each
	// shard through its own proto.RetryClient under this config —
	// attempts, jittered exponential backoff between them, and the
	// per-round-trip deadline.
	Retry proto.RetryConfig
	// HealthInterval is the shard health probe period (0 = 500ms).
	HealthInterval time.Duration
	// IdleTimeout bounds how long the router waits for a client's
	// next request; 0 means wait forever.
	IdleTimeout time.Duration
	// FrameLimit caps one client message's decode-layer bytes (0 =
	// wire.Limits' default: twice the snapshot cap plus slack — the
	// same two-tier rule the analysis server enforces, so a message
	// the server would kill never gets past the router either).
	FrameLimit int64
	// Registry receives the router's metrics (nil = a fresh one).
	Registry *obs.Registry
}

// Router is the thin, stateless front of a sharded fleet deployment.
// It speaks the fleet wire protocol to clients and forwards every
// request to the owning shard: registrations broadcast to all shards
// (they are idempotent, and any shard may later own a case for the
// tenant), failure reports route by the consistent hash of (tenant,
// failure PC), directive listings fan out and merge, and batch, report
// and publish requests route by the same key: the tenant and the
// case's trigger PC, which every such request carries.
//
// Client connections are served by the same core as the analysis
// server's (proto.ConnServer): accept backoff, drain, negotiation,
// panic recovery and the frame-limit rule are shared, and the router
// supplies only its per-request handler.
//
// The router holds no durable state: every case lives in exactly one
// shard's WAL. A router restart loses nothing; a shard restart is
// invisible (same name, same keys, recovery via the shard's own
// Restore), surfacing only as retried forwards while it was down.
type Router struct {
	cfg     RouterConfig
	ring    *Ring
	members []Member // sorted by name
	dial    func(addr string) (net.Conn, error)

	reg      *obs.Registry
	requests map[string]*obs.Counter // by request kind
	forwards map[string]*obs.Counter // by shard name
	retries  map[string]*obs.Counter
	up       map[string]*obs.Gauge
	hcFails  map[string]*obs.Counter
	dropped  *obs.Counter

	// conns is the serving core: accept loop, drain, negotiation.
	conns *proto.ConnServer

	healthOnce sync.Once
	healthStop chan struct{}
	healthDone chan struct{}
}

// routedKinds lists the fleet request kinds the router understands.
var routedKinds = []string{"register", "fleet-failure", "directives", "batch", "report", "publish", "status"}

// NewRouter builds a router over the given shards.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one member")
	}
	seen := make(map[string]bool, len(cfg.Members))
	members := append([]Member(nil), cfg.Members...)
	var names []string
	for _, m := range members {
		if m.Name == "" || m.Addr == "" {
			return nil, fmt.Errorf("shard: member needs a name and an address (got %q, %q)", m.Name, m.Addr)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("shard: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		names = append(names, m.Name)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	r := &Router{
		cfg:        cfg,
		ring:       NewRing(names, cfg.Vnodes),
		members:    members,
		dial:       cfg.Dial,
		reg:        cfg.Registry,
		healthStop: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	if r.dial == nil {
		r.dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	r.conns = proto.NewConnServer(r.reg)
	r.requests = make(map[string]*obs.Counter, len(routedKinds))
	for _, kind := range routedKinds {
		r.requests[kind] = r.reg.Counter(MetricRouterRequests,
			"Client requests received by the shard router.", obs.L("kind", kind))
	}
	r.forwards = make(map[string]*obs.Counter, len(members))
	r.retries = make(map[string]*obs.Counter, len(members))
	r.up = make(map[string]*obs.Gauge, len(members))
	r.hcFails = make(map[string]*obs.Counter, len(members))
	for _, m := range members {
		l := obs.L("shard", m.Name)
		r.forwards[m.Name] = r.reg.Counter(MetricRouterForwards, "Requests forwarded per shard.", l)
		r.retries[m.Name] = r.reg.Counter(MetricRouterRetries, "Forwarding retries per shard.", l)
		r.up[m.Name] = r.reg.Gauge(MetricRouterShardUp, "1 while the shard's last health probe succeeded.", l)
		r.up[m.Name].Set(1) // optimistic until the first probe says otherwise
		r.hcFails[m.Name] = r.reg.Counter(MetricRouterHealthFails, "Failed health probes per shard.", l)
	}
	r.dropped = r.reg.Counter(MetricRouterDroppedConns,
		"Client connections dropped because a shard stayed unreachable.")
	return r, nil
}

// Ring exposes the router's placement ring (for tests and tooling
// that predict ownership).
func (r *Router) Ring() *Ring { return r.ring }

// Metrics returns the router's metrics registry.
func (r *Router) Metrics() *obs.Registry { return r.reg }

// Owner returns the member owning the routing key.
func (r *Router) Owner(key Key) Member {
	name := r.ring.Owner(key)
	for _, m := range r.members {
		if m.Name == name {
			return m
		}
	}
	return Member{}
}

// Ready reports whether the router can usefully forward: it is not
// draining and at least one shard's last health probe succeeded. A
// single down shard degrades (its keys stall and retry) but does not
// flip the router unready — the other shards' cases still flow.
func (r *Router) Ready() error {
	if r.conns.Draining() {
		return errors.New("shard: router is draining")
	}
	for _, m := range r.members {
		if r.up[m.Name].Value() == 1 {
			return nil
		}
	}
	return errors.New("shard: no shard is healthy")
}

// DebugMux returns the router's operational HTTP surface: /metrics,
// /healthz, /readyz and /debug/pprof/*.
func (r *Router) DebugMux() *http.ServeMux { return obs.DebugMux(r.reg, r.Ready) }

func (r *Router) healthInterval() time.Duration {
	if r.cfg.HealthInterval <= 0 {
		return 500 * time.Millisecond
	}
	return r.cfg.HealthInterval
}

// probe runs one health check against a member: its readiness
// endpoint when configured, otherwise a plain dial.
func (r *Router) probe(m Member) error {
	if m.HealthURL != "" {
		client := &http.Client{Timeout: 2 * time.Second}
		resp, err := client.Get(m.HealthURL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("shard %s: readyz returned %s", m.Name, resp.Status)
		}
		return nil
	}
	c, err := r.dial(m.Addr)
	if err != nil {
		return err
	}
	return c.Close()
}

// healthLoop polls every member until Shutdown.
func (r *Router) healthLoop() {
	defer close(r.healthDone)
	ticker := time.NewTicker(r.healthInterval())
	defer ticker.Stop()
	for {
		for _, m := range r.members {
			if err := r.probe(m); err != nil {
				r.up[m.Name].Set(0)
				r.hcFails[m.Name].Inc()
			} else {
				r.up[m.Name].Set(1)
			}
		}
		select {
		case <-r.healthStop:
			return
		case <-ticker.C:
		}
	}
}

// Serve accepts client connections until the listener closes or
// Shutdown is called (see proto.ConnServer.Serve). The health prober
// starts with the first Serve call.
func (r *Router) Serve(ln net.Listener) error {
	r.healthOnce.Do(func() { go r.healthLoop() })
	return r.conns.Serve(ln, r.connHandler())
}

// Shutdown drains the router — listeners close, idle client
// connections close immediately, in-flight forwards finish (up to
// ctx) — and then stops the health prober. The router has no durable
// state to flush, so a drained router can simply be replaced.
func (r *Router) Shutdown(ctx context.Context) error {
	err := r.conns.Shutdown(ctx)
	r.healthOnce.Do(func() { close(r.healthDone) }) // never served: nothing to stop
	select {
	case <-r.healthDone:
	default:
		close(r.healthStop)
		<-r.healthDone
	}
	return err
}

// frameLimit is the router's decode-layer cap on one client message.
// The rule is encoded once, in wire.Limits, and enforced by the
// serving core the analysis server shares: same default, same breach
// semantics (reply "message exceeds frame limit", then close), so a
// client cannot observe whether the cap tripped at the router or the
// shard.
func (r *Router) frameLimit() int64 {
	if r.cfg.FrameLimit > 0 {
		return r.cfg.FrameLimit
	}
	return wire.Limits{}.FrameLimit()
}

// upstreams is one client connection's shard clients, by shard name:
// one proto.RetryClient per shard, so a chatty agent reuses its
// forwarding connection instead of dialing per request, and a failed
// forward reconnects through the same loop every fleet client uses.
type upstreams map[string]*proto.RetryClient

func (u upstreams) closeAll() {
	for _, rc := range u {
		rc.Close()
	}
}

// forward runs call against member m through its retrying client:
// transport failures re-dial with jittered backoff under the
// per-attempt deadline, and each re-dial counts as one retry. A server
// "error" reply is a success at this layer — RoundTrip and RelayRaw
// relay it instead of returning a *proto.ServerError — so it is never
// retried. The returned error means the shard stayed unreachable
// through the whole budget.
func (r *Router) forward(u upstreams, m Member, call func(c *proto.Conn) error) error {
	rc := u[m.Name]
	if rc == nil {
		rc = proto.NewRetryClient(func() (net.Conn, error) { return r.dial(m.Addr) }, r.cfg.Retry)
		u[m.Name] = rc
	}
	before := rc.Retries()
	err := rc.Do(context.Background(), call)
	r.retries[m.Name].Add(rc.Retries() - before)
	if err != nil {
		return fmt.Errorf("shard %s (%s): %w", m.Name, m.Addr, err)
	}
	r.forwards[m.Name].Inc()
	return nil
}

// roundTrip forwards one decoded request to member m.
func (r *Router) roundTrip(u upstreams, m Member, req proto.Request) (resp proto.Response, err error) {
	err = r.forward(u, m, func(c *proto.Conn) (err error) {
		resp, err = c.RoundTrip(req)
		return err
	})
	return resp, err
}

// errDropped closes a client connection whose request needed a shard
// that stayed unreachable. Dropping the transport (rather than
// replying "error") keeps the client's own retry loop alive.
var errDropped = errors.New("shard: upstream unreachable; dropping the client")

// connHandler plugs the router into the serving core: each client
// connection gets its own shard clients, closed when it ends.
func (r *Router) connHandler() proto.ConnHandler {
	return proto.ConnHandler{
		IdleTimeout: r.cfg.IdleTimeout,
		FrameLimit:  r.frameLimit(),
		Open: func(c *proto.ClientConn) (func(*proto.RequestEnvelope) error, func()) {
			u := make(upstreams, len(r.members))
			return func(env *proto.RequestEnvelope) error { return r.serve(c, u, env) }, u.closeAll
		},
	}
}

// serve handles one client request. Requests with a single owning
// shard take the zero-copy relay; fan-out kinds (register, directives,
// status) and malformed requests are assembled — the same full decode
// the analysis server runs — and routed. The serving core has already
// checked the message's declared size against the frame limit.
func (r *Router) serve(c *proto.ClientConn, u upstreams, env *proto.RequestEnvelope) error {
	if ctr := r.requests[env.Req.Kind]; ctr != nil {
		ctr.Inc()
	}
	if m, ok := r.relayOwner(env); ok {
		return r.relay(c, u, env, m)
	}
	if err := env.Assemble(c.Reader()); err != nil {
		return err
	}
	resp, ok := r.route(u, env.Req)
	if !ok {
		r.dropped.Inc()
		return errDropped
	}
	return c.Reply(&resp)
}

// relayPool recycles the relay path's raw-frame buffers.
var relayPool = sync.Pool{New: func() any { return new([]byte) }}

// relayOwner reports whether the request is a single-owner forward the
// relay path can carry, and which shard owns it. Fan-out kinds, unknown
// kinds and malformed fleet-failures (the nil check must reply before
// any shard is dialed) fall back to the decode path.
func (r *Router) relayOwner(env *proto.RequestEnvelope) (Member, bool) {
	req := &env.Req
	switch req.Kind {
	case "fleet-failure":
		if req.Failure == nil {
			return Member{}, false
		}
		return r.Owner(Key{Tenant: req.Tenant, PC: req.Failure.PC}), true
	case "batch", "report", "publish":
		return r.Owner(Key{Tenant: req.Tenant, PC: req.RoutePC}), true
	}
	return Member{}, false
}

// relay carries one request across the hop raw: the envelope frame
// plus its chunk frames accumulate verbatim (headers, checksums and
// all) in a pooled buffer, go to the owning shard via RelayRaw — which
// forward retries by resending the same bytes — and the shard's reply
// payload is relayed back untouched. The buffer is bounded by the
// frame limit the serving core checked on the declared sizes.
func (r *Router) relay(c *proto.ClientConn, u upstreams, env *proto.RequestEnvelope, m Member) error {
	bufp := relayPool.Get().(*[]byte)
	raw := env.AppendFrame((*bufp)[:0])
	defer func() {
		*bufp = raw[:0]
		relayPool.Put(bufp)
	}()
	for remaining := env.DeclaredBytes(); remaining > 0; {
		typ, h, b, err := c.Reader().NextRaw()
		if err != nil {
			return err
		}
		n := int64(len(b) - 1)
		if typ != wire.FrameChunk || n == 0 || n > remaining {
			return fmt.Errorf("%w: malformed chunk frame in a relayed request", wire.ErrDecode)
		}
		raw = append(raw, h...)
		raw = append(raw, b...)
		remaining -= n
	}
	var payload []byte
	if err := r.forward(u, m, func(up *proto.Conn) (err error) {
		payload, err = up.RelayRaw(raw)
		return err
	}); err != nil {
		r.dropped.Inc()
		return errDropped
	}
	return c.ReplyRaw(payload)
}

// route dispatches one request. ok=false means a shard the request
// needed stayed unreachable and the client connection must drop.
func (r *Router) route(u upstreams, req proto.Request) (proto.Response, bool) {
	switch req.Kind {
	case "register":
		return r.broadcastRegister(u, req)
	case "fleet-failure":
		if req.Failure == nil {
			return proto.Response{Kind: "error", Err: "fleet-failure request missing report"}, true
		}
		resp, err := r.roundTrip(u, r.Owner(Key{Tenant: req.Tenant, PC: req.Failure.PC}), req)
		return resp, err == nil
	case "directives":
		return r.mergeDirectives(u, req)
	case "status":
		return r.sumStatus(u, req)
	default:
		return proto.Response{Kind: "error", Err: fmt.Sprintf("unknown request %q", req.Kind)}, true
	}
}

// broadcastRegister registers the tenant on every shard. Registration
// is idempotent and any shard may later own one of the tenant's
// cases, so all shards must ack before the client is told "registered"
// — a shard that stayed unreachable drops the connection and the
// client's retry re-broadcasts.
func (r *Router) broadcastRegister(u upstreams, req proto.Request) (proto.Response, bool) {
	var out proto.Response
	for _, m := range r.members {
		resp, err := r.roundTrip(u, m, req)
		if err != nil {
			return proto.Response{}, false
		}
		if resp.Kind == "error" {
			// Deterministic rejection (bad module text): every shard
			// would say the same; relay the first.
			return resp, true
		}
		out = resp
	}
	return out, true
}

// mergeDirectives fans the listing out to every shard and merges the
// armed directives, sorted by case id (globally unique via the
// shards' disjoint CaseBase namespaces).
func (r *Router) mergeDirectives(u upstreams, req proto.Request) (proto.Response, bool) {
	var ds []proto.Directive
	for _, m := range r.members {
		resp, err := r.roundTrip(u, m, req)
		if err != nil {
			return proto.Response{}, false
		}
		if resp.Kind == "error" {
			// unknown tenant: registration has not reached every shard
			// yet, so the fleet-wide listing is not answerable.
			return resp, true
		}
		ds = append(ds, resp.Directives...)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Case < ds[j].Case })
	return proto.Response{Kind: "directives", Tenant: req.Tenant, Directives: ds}, true
}

// sumStatus aggregates every shard's status reply into one fleet-wide
// view: cumulative counters and live gauges sum; capacity fields
// (MaxConcurrent, Workers) sum too, reading as total fleet capacity.
func (r *Router) sumStatus(u upstreams, req proto.Request) (proto.Response, bool) {
	var sum proto.ServerStatus
	for _, m := range r.members {
		resp, err := r.roundTrip(u, m, req)
		if err != nil {
			return proto.Response{}, false
		}
		if resp.Kind == "error" {
			return resp, true
		}
		if resp.Status == nil {
			continue
		}
		st := resp.Status
		sum.OpenConns += st.OpenConns
		sum.ActiveDiagnoses += st.ActiveDiagnoses
		sum.QueuedDiagnoses += st.QueuedDiagnoses
		sum.CompletedDiagnoses += st.CompletedDiagnoses
		sum.FailedDiagnoses += st.FailedDiagnoses
		sum.MaxConcurrent += st.MaxConcurrent
		sum.Workers += st.Workers
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.DiagnoseTime += st.DiagnoseTime
		sum.DroppedSuccesses += st.DroppedSuccesses
		sum.DeadlineDrops += st.DeadlineDrops
		sum.OversizeRejects += st.OversizeRejects
		sum.PanicsRecovered += st.PanicsRecovered
	}
	return proto.Response{Kind: "status", Status: &sum}, true
}

package shard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/faultnet"
	"snorlax/internal/fleet"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/shard"
)

// testShard is one in-process shard: an analysis server with its own
// case-id namespace, listening on a loopback port.
type testShard struct {
	member shard.Member
	srv    *proto.Server
	ln     net.Listener
}

// startShards brings up n in-process shards with disjoint CaseBase
// namespaces (shard i gets i<<32). configure, when given, adjusts each
// server before it starts serving.
func startShards(t *testing.T, n int, configure ...func(*proto.Server)) []testShard {
	t.Helper()
	shards := make([]testShard, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := proto.NewServer(core.NewServer(nil)) // every program arrives by registration
		srv.IdleTimeout = 10 * time.Second
		srv.WriteTimeout = 10 * time.Second
		srv.CaseBase = uint64(i) << 32
		for _, f := range configure {
			f(srv)
		}
		go srv.Serve(ln)
		shards[i] = testShard{
			member: shard.Member{Name: fmt.Sprintf("shard-%d", i), Addr: ln.Addr().String()},
			srv:    srv,
			ln:     ln,
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	return shards
}

func members(shards []testShard) []shard.Member {
	ms := make([]shard.Member, len(shards))
	for i, s := range shards {
		ms[i] = s.member
	}
	return ms
}

// startRouter serves a router over the shards and returns its address.
func startRouter(t *testing.T, cfg shard.RouterConfig) (*shard.Router, string) {
	t.Helper()
	r, err := shard.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	})
	return r, ln.Addr().String()
}

// shardByName finds the test shard backing a ring member name.
func shardByName(t *testing.T, shards []testShard, name string) *testShard {
	t.Helper()
	for i := range shards {
		if shards[i].member.Name == name {
			return &shards[i]
		}
	}
	t.Fatalf("no shard named %q", name)
	return nil
}

// TestRouterEndToEnd runs the full fleet flow for two corpus bugs
// through a 3-shard router and verifies the sharded deployment is
// observationally identical to a single server: exact quota, reports
// bit-identical to a direct diagnosis of the owning shard's accepted
// traces, registration broadcast to every shard, and each case living
// on exactly the shard the ring names as owner.
func TestRouterEndToEnd(t *testing.T) {
	shards := startShards(t, 3)
	router, addr := startRouter(t, shard.RouterConfig{Members: members(shards)})

	for _, bugID := range []string{"dbcp-1", "httpd-4"} {
		t.Run(bugID, func(t *testing.T) {
			bug := corpus.ByID(bugID)
			failInst := bug.Build(corpus.Variant{Failing: true})
			okInst := bug.Build(corpus.Variant{Failing: false})

			res, err := fleet.Run(
				fleet.Program{Fail: failInst.Mod, OK: okInst.Mod},
				fleet.Config{
					Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
					Clients: 4,
				})
			if err != nil {
				t.Fatal(err)
			}
			if res.Diagnosis == nil {
				t.Fatal("fleet returned no diagnosis")
			}

			// Every shard must know the tenant (registration broadcast) —
			// a later failure at any PC may hash anywhere.
			tenant := res.Tenant
			for _, s := range shards {
				if _, err := dialConn(t, s.member.Addr).Directives(tenant); err != nil {
					t.Errorf("%s does not know tenant: %v", s.member.Name, err)
				}
			}

			// The case must live on exactly the ring's owner, under that
			// shard's case-id namespace.
			owner := router.Ring().Owner(shard.Key{Tenant: tenant, PC: res.Failure.PC})
			os := shardByName(t, shards, owner)
			failing, successes, ok := os.srv.FleetCaseTraces(tenant, res.Case)
			if !ok {
				t.Fatalf("owner %s has no case %d", owner, res.Case)
			}
			if len(successes) != proto.DefaultFleetQuota {
				t.Fatalf("owner accepted %d traces, want exactly %d", len(successes), proto.DefaultFleetQuota)
			}
			for _, s := range shards {
				if s.member.Name == owner {
					continue
				}
				if _, _, ok := s.srv.FleetCaseTraces(tenant, res.Case); ok {
					t.Errorf("case %d leaked onto non-owner %s", res.Case, s.member.Name)
				}
			}

			// Bit-identity against a direct diagnosis of the same traces.
			want, err := core.NewServer(failInst.Mod).Diagnose(failing, successes)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Diagnosis
			if !reflect.DeepEqual(got.Scores, want.Scores) ||
				!reflect.DeepEqual(got.Best, want.Best) || got.AnchorPC != want.AnchorPC {
				t.Errorf("routed diagnosis diverges from direct:\n got %v\nwant %v", got.Best, want.Best)
			}
		})
	}

	// Aggregated status sums the shards.
	c := dialConn(t, addr)
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CompletedDiagnoses < 2 {
		t.Errorf("aggregated CompletedDiagnoses = %d, want >= 2", st.CompletedDiagnoses)
	}
	// No shard failed a forward, so the router never asked twice.
	for _, s := range shards {
		if n := forwardRetries(t, router.Metrics(), s.member.Name); n != 0 {
			t.Errorf("%s: %d forward retries on a fault-free run, want 0", s.member.Name, n)
		}
	}
}

// forwardRetries reads the router's retry counter for one shard.
func forwardRetries(t *testing.T, reg *obs.Registry, shardName string) uint64 {
	t.Helper()
	m := reg.Find(shard.MetricRouterRetries, obs.L("shard", shardName))
	if m == nil {
		t.Fatalf("%s{shard=%q} not registered", shard.MetricRouterRetries, shardName)
	}
	return m.Counter.Value()
}

func dialConn(t *testing.T, addr string) *proto.Conn {
	t.Helper()
	c, err := proto.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRouterCaseIDsAreNamespaced checks that cases opened on
// different shards never share an id: the shard's CaseBase keeps the
// merged directive listing unambiguous.
func TestRouterCaseIDsAreNamespaced(t *testing.T) {
	shards := startShards(t, 4)
	router, addr := startRouter(t, shard.RouterConfig{Members: members(shards)})

	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := reproduce(t, failInst.Mod)

	c := dialConn(t, addr)
	tenant, err := c.Register(ir.Print(failInst.Mod))
	if err != nil {
		t.Fatal(err)
	}
	caseID, _, _, err := c.ReportFleetFailure(tenant, rep.Failure, rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	owner := router.Ring().Owner(shard.Key{Tenant: tenant, PC: rep.Failure.PC})
	os := shardByName(t, shards, owner)
	base := os.srv.CaseBase
	if uint64(caseID) <= base {
		t.Errorf("case id %d not namespaced above owner base %d", caseID, base)
	}
	if uint64(caseID)>>32 != base>>32 {
		t.Errorf("case id %d carries wrong shard namespace (owner base %d)", caseID, base)
	}
}

func reproduce(t *testing.T, mod *ir.Module) *core.RunReport {
	t.Helper()
	client := core.NewClient(mod)
	for seed := int64(1); seed <= 64; seed++ {
		if rep := client.Run(seed, ir.NoPC); rep.Failed() {
			return rep
		}
	}
	t.Fatal("could not reproduce the failure")
	return nil
}

// TestRouterSessionMatchesDirectDiagnosis runs a single client's
// diagnosis session through the router: the client registers through
// the broadcast on "unknown tenant", its uploads and its publish route
// by (tenant, trigger PC) to the owning shard, and the report is
// fingerprint-equal to a direct diagnosis of the owner's case traces.
// Publishing a case no shard holds relays the machine-readable
// rejections.
func TestRouterSessionMatchesDirectDiagnosis(t *testing.T) {
	shards := startShards(t, 3)
	router, addr := startRouter(t, shard.RouterConfig{Members: members(shards)})

	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	rep := reproduce(t, failInst.Mod)

	rc := proto.DialRetrying("tcp", addr, proto.RetryConfig{MaxAttempts: 1})
	defer rc.Close()
	trigger, err := rc.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	okClient := core.NewClient(okInst.Mod)
	const sent = proto.DefaultFleetQuota / 2
	for n, seed := 0, int64(1); n < sent && seed < 4096; seed++ {
		okRep := okClient.Run(seed, trigger)
		if okRep.Failed() || !okRep.Triggered || okRep.Snapshot == nil {
			continue
		}
		if err := rc.SendSuccess(okRep.Snapshot); err != nil {
			t.Fatal(err)
		}
		n++
	}
	got, err := rc.Diagnose()
	if err != nil {
		t.Fatal(err)
	}

	tenant, caseID := rc.Case()
	owner := shardByName(t, shards, router.Ring().Owner(shard.Key{Tenant: tenant, PC: trigger}))
	failing, successes, ok := owner.srv.FleetCaseTraces(tenant, caseID)
	if !ok {
		t.Fatalf("owner %s has no case %d", owner.member.Name, caseID)
	}
	if len(successes) != sent {
		t.Fatalf("owner accepted %d traces, want %d", len(successes), sent)
	}
	want, err := core.NewServer(failInst.Mod).Diagnose(failing, successes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("routed session report diverges from direct:\n got %v\nwant %v", got.Best, want.Best)
	}

	c := dialConn(t, addr)
	for _, tc := range []struct {
		tenant proto.TenantID
		id     proto.CaseID
		code   string
	}{{tenant, 99999, proto.CodeUnknownCase}, {"nope", caseID, proto.CodeUnknownTenant}} {
		var se *proto.ServerError
		if _, _, err := c.Publish(tc.tenant, tc.id, trigger); !errors.As(err, &se) || se.Code != tc.code {
			t.Errorf("publish of %.8s/%d: err = %v, want a %s rejection", tc.tenant, tc.id, err, tc.code)
		}
	}
}

// TestRouterFailoverRetries pushes every router→shard connection
// through a seeded fault injector: forwarding must absorb the faults
// within its retry budget and the fleet flow still complete, with the
// router's retry counter showing it happened.
func TestRouterFailoverRetries(t *testing.T) {
	shards := startShards(t, 2)
	inj := faultnet.New(faultnet.Config{
		Seed: 7, FaultEvery: 4, MaxFaults: 12, Stall: 2 * time.Millisecond})
	reg := obs.NewRegistry()
	_, addr := startRouter(t, shard.RouterConfig{
		Members: members(shards),
		Dial: func(addr string) (net.Conn, error) {
			return inj.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })()
		},
		Retry:    proto.RetryConfig{MaxAttempts: 20, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		Registry: reg,
	})

	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})
	res, err := fleet.Run(
		fleet.Program{Fail: failInst.Mod, OK: okInst.Mod},
		fleet.Config{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Clients:     4,
			MaxAttempts: 40,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnosis == nil {
		t.Fatal("fleet returned no diagnosis")
	}
	if inj.Stats().Total() == 0 {
		t.Error("chaos run fired no faults; the schedule is miswired")
	}
	// The faults hit router→shard connections, so forwarding retried.
	var retries uint64
	for _, s := range shards {
		retries += forwardRetries(t, reg, s.member.Name)
	}
	if retries == 0 {
		t.Error("forwarding absorbed the faults, but no shard's retry counter moved")
	}
}

// TestRouterDownShardDropsConn kills one shard for good and checks
// the router's contract: requests owned by the dead shard drop the
// client's connection (a retryable transport fault, never a
// deterministic "error" reply), requests owned by live shards keep
// working, and the drop counter records it.
func TestRouterDownShardDropsConn(t *testing.T) {
	shards := startShards(t, 2)
	reg := obs.NewRegistry()
	router, addr := startRouter(t, shard.RouterConfig{
		Members:  members(shards),
		Retry:    proto.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Registry: reg,
	})

	bug := corpus.ByID("httpd-4")
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := reproduce(t, failInst.Mod)

	c := dialConn(t, addr)
	tenant, err := c.Register(ir.Print(failInst.Mod))
	if err != nil {
		t.Fatal(err)
	}

	// Kill the shard that owns this failure's case.
	ownerName := router.Ring().Owner(shard.Key{Tenant: tenant, PC: rep.Failure.PC})
	victim := shardByName(t, shards, ownerName)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := victim.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The failure report routes to the dead owner: the connection must
	// drop with a transport error, not an "error" reply.
	_, _, _, err = c.ReportFleetFailure(tenant, rep.Failure, rep.Snapshot)
	var se *proto.ServerError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("request for dead shard returned %v, want a transport error", err)
	}
	if v := reg.Find(shard.MetricRouterDroppedConns).Counter.Value(); v != 1 {
		t.Errorf("dropped-conns counter = %d, want 1", v)
	}

	// A fresh connection still serves keys owned by the live shard.
	c2 := dialConn(t, addr)
	if _, err := c2.Directives(tenant); err == nil {
		// directives fan out to all shards, so with one dead it must
		// NOT succeed — it should drop too (transport), keeping the
		// degradation visible to pollers.
		t.Error("directives fan-out succeeded with a dead shard")
	}
}

// TestRouterDrain checks the graceful half of the router's lifecycle:
// Shutdown with only idle connections returns promptly, closes them,
// and further dials are refused.
func TestRouterDrain(t *testing.T) {
	shards := startShards(t, 2)
	r, err := shard.NewRouter(shard.RouterConfig{Members: members(shards)})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- r.Serve(ln) }()

	c := dialConn(t, ln.Addr().String())
	if err := r.Ready(); err != nil {
		t.Fatalf("router not ready before drain: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := r.Ready(); err == nil {
		t.Error("router still ready after drain")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The idle client connection was closed under us.
	c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Directives("whatever"); err == nil {
		t.Error("drained router still serving")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("drained router still accepting")
	}
}

// TestRouterDebugMux pins the router's operational HTTP surface: the
// supervisor probes /healthz and /readyz, and the scrape target is
// /metrics with the router's forward/health counters on it.
func TestRouterDebugMux(t *testing.T) {
	shards := startShards(t, 2)
	r, _ := startRouter(t, shard.RouterConfig{
		Members:        members(shards),
		HealthInterval: 20 * time.Millisecond,
	})
	if r.Metrics() == nil {
		t.Fatal("router has no metrics registry")
	}
	srv := httptest.NewServer(r.DebugMux())
	defer srv.Close()

	// Readiness needs at least one successful probe; give the prober
	// a few intervals.
	deadline := time.Now().Add(5 * time.Second)
	for r.Ready() != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := r.Ready(); err != nil {
		t.Fatalf("router never became ready: %v", err)
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", code)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d, want 200", code)
	}
	for _, name := range []string{shard.MetricRouterShardUp, shard.MetricRouterForwards} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

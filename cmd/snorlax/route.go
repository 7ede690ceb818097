package main

// The sharded fleet tier's operational entry points: -route runs the
// stateless shard router in front of -serve shards (each with its own
// -state-dir and -case-base).

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/shard"
)

var (
	route      = flag.String("route", "", "run a stateless shard router on this address (requires -shards)")
	shardsFlag = flag.String("shards", "", "-route: comma-separated shard members, each name=addr or name=addr;readyz-url")
	caseBase   = flag.Uint64("case-base", 0, "-serve: namespace case ids above this base; give each shard a disjoint base (shard i conventionally gets i<<32)")
)

// parseMembers parses the -shards flag: comma-separated members, each
// "name=addr", "name=addr;health-url", or a bare "addr" (which names
// itself). Placement is order-independent.
func parseMembers(spec string) ([]shard.Member, error) {
	var ms []shard.Member
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		m := shard.Member{}
		if eq := strings.IndexByte(raw, '='); eq >= 0 {
			m.Name, raw = raw[:eq], raw[eq+1:]
		}
		if semi := strings.IndexByte(raw, ';'); semi >= 0 {
			raw, m.HealthURL = raw[:semi], raw[semi+1:]
		}
		m.Addr = raw
		if m.Name == "" {
			m.Name = m.Addr
		}
		if m.Addr == "" {
			return nil, fmt.Errorf("shard member %q has no address", m.Name)
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("-route needs at least one -shards member")
	}
	return ms, nil
}

func sumCounter(reg *obs.Registry, name string) uint64 {
	var sum uint64
	for _, m := range reg.Gather() {
		if m.Name == name && m.Counter != nil {
			sum += m.Counter.Value()
		}
	}
	return sum
}

// runRouter hosts the stateless shard router: consistent-hash routing
// of fleet requests to the owning shard, health probing, and failover
// retries. SIGINT/SIGTERM drain gracefully, exactly like -serve.
func runRouter(addr string) {
	members, err := parseMembers(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	r, err := shard.NewRouter(shard.RouterConfig{
		Members:     members,
		Retry:       proto.RetryConfig{MaxAttempts: *retries},
		IdleTimeout: *idleTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	fmt.Printf("shard router listening on %s (%d shards: %s)\n",
		ln.Addr(), len(members), strings.Join(names, ", "))

	var msrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)\n", mln.Addr())
		msrv = &http.Server{Handler: r.DebugMux()}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	exitCode := 0
	go func() {
		defer close(done)
		s := <-sig
		exitCode = drainRouter(os.Stdout, r, s.String(), *drainTimeout)
		if msrv != nil {
			msrv.Shutdown(context.Background())
		}
	}()
	if err := r.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
	os.Exit(exitCode)
}

// drainRouter shuts the router down gracefully — stop accepting, let
// in-flight forwards finish, close idle connections — and reports the
// forwarding totals. A failed drain must not exit 0: connections were
// force-closed mid-request.
func drainRouter(w io.Writer, r *shard.Router, sig string, timeout time.Duration) int {
	fmt.Fprintf(w, "%s: draining (up to %s)...\n", sig, timeout)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := r.Shutdown(ctx)
	reg := r.Metrics()
	fmt.Fprintf(w, "forwarded %d requests (%d retries, %d dropped client conns)\n",
		sumCounter(reg, shard.MetricRouterForwards),
		sumCounter(reg, shard.MetricRouterRetries),
		sumCounter(reg, shard.MetricRouterDroppedConns))
	if err != nil {
		fmt.Fprintf(w, "shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, "router drained clean")
	return 0
}

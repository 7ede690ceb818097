package main

// The sharded fleet tier's operational entry points: -route runs the
// stateless shard router in front of -serve -fleet shards (each with
// its own -state-dir and -case-base), and -loadgen drives the fleet
// load generator against a server or router, optionally recording the
// headline numbers to a BENCH_fleet.json.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"snorlax/internal/corpus"
	"snorlax/internal/fleet"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/shard"
)

var (
	route      = flag.String("route", "", "run a stateless shard router on this address (requires -shards)")
	shardsFlag = flag.String("shards", "", "-route: comma-separated shard members, each name=addr or name=addr;readyz-url")
	caseBase   = flag.Uint64("case-base", 0, "-serve -fleet: namespace case ids above this base; give each shard a disjoint base (shard i conventionally gets i<<32)")

	loadgen    = flag.String("loadgen", "", "drive the fleet load generator against the server or router at this address")
	loadAgents = flag.Int("load-agents", 1000, "-loadgen: simulated agents")
	loadConc   = flag.Int("load-concurrency", 64, "-loadgen: simultaneously connected agents")
	loadBugs   = flag.String("load-bugs", "dbcp-1,httpd-4,derby-3,groovy-2", "-loadgen: corpus bugs to drive, one tenant/case each")
	loadWave   = flag.Duration("load-stagger", 0, "-loadgen: delay between program waves")
	benchOut   = flag.String("bench-out", "", "-loadgen: append the run's headline numbers to this JSON file (e.g. BENCH_fleet.json)")
)

// parseMembers parses the -shards flag: comma-separated members, each
// "name=addr", "name=addr;health-url", or a bare "addr" (which names
// itself). The member order is the router's unrouted-fallback scan
// order; the ring itself is order-independent.
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

// fleetBenchFile is the BENCH_fleet.json shape: a description plus
// one entry per recorded run, mirroring BENCH_vm.json.
type fleetBenchFile struct {
	Description string            `json:"description"`
	Entries     []fleetBenchEntry `json:"entries"`
}

type fleetBenchEntry struct {
	Date           string  `json:"date"`
	Go             string  `json:"go"`
	Agents         int     `json:"agents"`
	Programs       int     `json:"programs"`
	DurationS      float64 `json:"duration_s"`
	Accepted       int     `json:"accepted_traces"`
	AcceptedPerSec float64 `json:"accepted_traces_per_s"`
	Reports        int     `json:"reports"`
	ReportsPerMin  float64 `json:"reports_per_min"`
	DirectiveP50Ms float64 `json:"directive_p50_ms"`
	DirectiveP99Ms float64 `json:"directive_p99_ms"`
	Retried        int     `json:"transport_retries"`
}

func writeFleetBench(path string, st fleet.LoadStats) error {
	f := fleetBenchFile{
		Description: "Fleet tier load-generator benchmarks: simulated agents driving the " +
			"full on-demand collection loop (register, heavy-tailed failure reports, " +
			"directive polling, batched uploads, report fetch) against a fleet server " +
			"or shard router. Recorded by scripts/bench.sh fleet via snorlax -loadgen.",
	}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("%s exists but is not a fleet bench file: %w", path, err)
		}
	}
	f.Entries = append(f.Entries, fleetBenchEntry{
		Date:           time.Now().UTC().Format("2006-01-02"),
		Go:             runtime.Version(),
		Agents:         st.Agents,
		Programs:       st.Programs,
		DurationS:      st.Duration.Seconds(),
		Accepted:       st.Accepted,
		AcceptedPerSec: st.AcceptedPerSec,
		Reports:        st.Reports,
		ReportsPerMin:  st.ReportsPerMin,
		DirectiveP50Ms: float64(st.DirectiveP50) / float64(time.Millisecond),
		DirectiveP99Ms: float64(st.DirectiveP99) / float64(time.Millisecond),
		Retried:        st.Retried,
	})
	out, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runLoadgen drives the fleet load generator against addr and prints
// the headline numbers; with -bench-out it also records them.
func runLoadgen(addr string) bool {
	var programs []fleet.Program
	var ids []string
	for _, id := range strings.Split(*loadBugs, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		b := lookup(id)
		programs = append(programs, fleet.Program{
			Fail: b.Build(corpus.Variant{Failing: true}).Mod,
			OK:   b.Build(corpus.Variant{Failing: false}).Mod,
		})
		ids = append(ids, id)
	}
	res, err := fleet.RunLoad(fleet.LoadConfig{
		Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Agents:      *loadAgents,
		Programs:    programs,
		Concurrency: *loadConc,
		MaxAttempts: *retries,
		Stagger:     *loadWave,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	st := res.Stats
	fmt.Printf("%d agents x %d programs in %s\n", st.Agents, st.Programs, st.Duration.Round(time.Millisecond))
	fmt.Printf("accepted %d/%d snapshots (%.1f/s), %d reports (%.1f/min)\n",
		st.Accepted, st.Uploaded, st.AcceptedPerSec, st.Reports, st.ReportsPerMin)
	fmt.Printf("directive poll p50=%s p99=%s; %d transport retries\n",
		st.DirectiveP50.Round(time.Microsecond), st.DirectiveP99.Round(time.Microsecond), st.Retried)
	ok := true
	for i, c := range res.Cases {
		status := "published"
		if c.Diagnosis == nil {
			status = "NO REPORT"
			ok = false
		}
		fmt.Printf("  %-16s case %d (tenant %.12s…): %d agents, %d failure reports, %d accepted — %s\n",
			ids[i], c.Case, c.Tenant, c.Agents, c.FailureReports, c.Accepted, status)
	}
	if *benchOut != "" {
		if err := writeFleetBench(*benchOut, st); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		fmt.Printf("recorded to %s\n", *benchOut)
	}
	return ok
}

// Command snorlax diagnoses a corpus concurrency bug end-to-end: it
// reproduces the failure under the simulated hardware tracer, gathers
// traces from successful executions at the failure location, runs
// Lazy Diagnosis, and prints the root cause next to the ground truth.
//
// Usage:
//
//	snorlax -list
//	snorlax -bug pbzip2-1
//	snorlax -all
//
// Analysis server (multi-tenant, on-demand collection) and clients:
//
//	snorlax -serve :7007 -bug pbzip2-1
//	snorlax -remote :7007 -bug pbzip2-1 -agent 4
//
// Sharded fleet tier (router + durable shards):
//
//	snorlax -serve :7101 -state-dir /var/lib/snorlax/s0 -case-base 0
//	snorlax -serve :7102 -state-dir /var/lib/snorlax/s1 -case-base 4294967296
//	snorlax -route :7100 -shards "s0=127.0.0.1:7101,s1=127.0.0.1:7102"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/fleet"
	"snorlax/internal/ir"
	"snorlax/internal/obs"
	"snorlax/internal/proto"
	"snorlax/internal/store"
)

var (
	bugID   = flag.String("bug", "", "corpus bug id to diagnose (see -list)")
	listAll = flag.Bool("list", false, "list the corpus bugs")
	all     = flag.Bool("all", false, "diagnose every corpus bug")
	serve   = flag.String("serve", "", "run an analysis server on this address (e.g. :7007); it pre-registers -bug, or every corpus bug, and clients may register more")
	remote  = flag.String("remote", "", "diagnose -bug against a remote analysis server at this address")
	agents  = flag.Int("agent", 1, "-remote: how many simulated agents run -bug")
	quota   = flag.Int("quota", 0, "-serve: per-case success-trace quota (0 = the paper's 10x)")
	workers = flag.Int("workers", 0, "success-trace pool size for -serve (0 = GOMAXPROCS)")
	maxDiag = flag.Int("max-diagnoses", 0, "concurrent diagnosis bound for -serve (0 = GOMAXPROCS)")

	idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "-serve: drop connections idle this long (0 = never)")
	writeTimeout = flag.Duration("write-timeout", 30*time.Second, "-serve: per-reply write deadline (0 = none)")
	maxSnapshot  = flag.Int64("max-snapshot-bytes", 0, "-serve: per-upload snapshot byte cap (0 = 64MB default, <0 = unlimited)")
	drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "-serve: how long SIGINT/SIGTERM shutdown waits for in-flight work")
	retries      = flag.Int("retries", 8, "-remote: attempts per operation before giving up")
	metricsAddr  = flag.String("metrics-addr", "", "-serve: also serve GET /metrics (Prometheus text format) and /debug/pprof/* on this address (e.g. 127.0.0.1:9090); empty = disabled")
	stateDir     = flag.String("state-dir", "", "-serve: persist fleet state (cases, accepted traces, published reports) to a write-ahead log in this directory and recover it on restart; empty = in-memory only")
	syncPolicy   = flag.String("sync", "interval", "-serve: when the state log is fsynced: always, interval or never")
)

func main() {
	flag.Parse()
	switch {
	case *route != "":
		runRouter(*route)
	case *serve != "":
		runServer(*serve)
	case *remote != "":
		if !fleetAgents(*remote, lookup(*bugID), *agents) {
			os.Exit(1)
		}
	case *listAll:
		list(os.Stdout)
	case *all:
		exitCode := 0
		for _, b := range corpus.All() {
			if !diagnose(os.Stdout, b) {
				exitCode = 1
			}
		}
		for _, b := range corpus.Extensions() {
			if !diagnose(os.Stdout, b) {
				exitCode = 1
			}
		}
		os.Exit(exitCode)
	case *bugID != "":
		if !diagnose(os.Stdout, lookup(*bugID)) {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func lookup(id string) *corpus.Bug {
	if id == "" {
		fmt.Fprintln(os.Stderr, "a -bug id is required; try -list")
		os.Exit(2)
	}
	b := corpus.ByID(id)
	if b == nil {
		b = corpus.ExtensionByID(id)
	}
	if b == nil {
		fmt.Fprintf(os.Stderr, "unknown bug %q; try -list\n", id)
		os.Exit(2)
	}
	return b
}

// runServer hosts the analysis side of Figure 2; clients connect with
// -remote. The server is multi-tenant: -bug, or else every corpus
// program, is pre-registered, and client agents drive the on-demand
// collection loop. SIGINT/SIGTERM drain gracefully: in-flight
// diagnoses finish (up to -drain-timeout) before exit.
func runServer(addr string) {
	var mods []*ir.Module
	if *bugID != "" {
		mods = append(mods, lookup(*bugID).Build(corpus.Variant{Failing: true}).Mod)
	} else {
		for _, b := range corpus.All() {
			mods = append(mods, b.Build(corpus.Variant{Failing: true}).Mod)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cs := core.NewServer(nil)
	cs.Workers = *workers
	ps := proto.NewServer(cs)
	ps.MaxConcurrent = *maxDiag
	ps.IdleTimeout = *idleTimeout
	ps.WriteTimeout = *writeTimeout
	ps.MaxSnapshotBytes = *maxSnapshot
	ps.FleetQuota = *quota
	ps.CaseBase = *caseBase
	if *stateDir != "" {
		pol, err := store.ParseSyncPolicy(*syncPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		w, err := store.Open(*stateDir, store.Options{SyncPolicy: pol, Registry: ps.Metrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ps.Store = w
		if err := ps.Restore(w.RecoveredState()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := w.Stats()
		fmt.Printf("durable state in %s (sync=%s, recovered through lsn %d, %d torn-tail truncations)\n",
			*stateDir, pol, st.LastLSN, st.TruncatedRecoveries)
	}
	for _, m := range mods {
		if _, err := ps.RegisterProgram(m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("analysis server listening on %s (%d programs pre-registered)\n", ln.Addr(), len(mods))

	var msrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics on http://%s/metrics (pprof on /debug/pprof/)\n", mln.Addr())
		msrv = &http.Server{Handler: obs.DebugMux(ps.Metrics(), ps.Ready)}
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
		fmt.Printf("%s: draining (up to %s)...\n", s, *drainTimeout)
		exitCode = drain(ps, *drainTimeout)
		if msrv != nil {
			msrv.Shutdown(context.Background())
		}
		st := ps.Status()
		fmt.Printf("served %d diagnoses (%d failed, %d dropped traces, %d panics recovered)\n",
			st.CompletedDiagnoses, st.FailedDiagnoses, st.DroppedSuccesses, st.PanicsRecovered)
	}()
	if err := ps.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
	os.Exit(exitCode)
}

// drain shuts the server down gracefully and maps the outcome to the
// process exit code. A failed drain is an operational failure — in
// particular a store flush error, which means state the server
// acknowledged may not be on disk — so it must not exit 0 and look
// healthy to the supervisor.
func drain(ps *proto.Server, timeout time.Duration) int {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := ps.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
		return 1
	}
	return 0
}

// fleetAgents plays the production-client side with n simulated
// agents for one corpus bug: register, reproduce and report the
// failure, collect triggered success traces on the server's directive,
// and print the published report once the quota is met. Agents retry
// through transport faults, reconnecting and repeating the idempotent
// request.
func fleetAgents(addr string, b *corpus.Bug, n int) bool {
	failInst := b.Build(corpus.Variant{Failing: true})
	okInst := b.Build(corpus.Variant{Failing: false})
	res, err := fleet.Run(
		fleet.Program{Fail: failInst.Mod, OK: okInst.Mod},
		fleet.Config{
			Dial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
			Clients:     n,
			MaxAttempts: *retries,
		})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return false
	}
	fmt.Printf("%d agents: case %d under tenant %.12s… diagnosed from %d accepted uploads (%d sent)\n",
		n, res.Case, res.Tenant, res.Accepted, res.Uploaded)
	fmt.Print(indent(core.Format(failInst.Mod, res.Diagnosis)))
	truth := core.Truth{Kind: failInst.TruthKind, Sub: failInst.TruthSub,
		PCs: failInst.TruthPCs, Absence: failInst.TruthAbsence}
	if core.MatchesTruth(res.Diagnosis.Best.Pattern, truth) {
		fmt.Println("    ground truth: MATCHES developer fix")
		return true
	}
	fmt.Println("    ground truth: DOES NOT MATCH")
	return false
}

func list(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-20s %-6s %-5s %s\n", "ID", "KIND", "LANG", "EVAL", "DESCRIPTION")
	for _, b := range corpus.All() {
		eval := ""
		if b.Eval {
			eval = "yes"
		}
		fmt.Fprintf(w, "%-16s %-20s %-6s %-5s %s\n", b.ID, b.Kind, b.Lang, eval, b.Description)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "extensions (beyond the paper's evaluation):")
	for _, b := range corpus.Extensions() {
		fmt.Fprintf(w, "%-16s %-20s %-6s %-5s %s\n", b.ID, b.Kind, b.Lang, "ext", b.Description)
	}
}

func diagnose(w io.Writer, b *corpus.Bug) bool {
	fmt.Fprintf(w, "=== %s (%s): %s\n", b.ID, b.Kind, b.Description)
	failInst := b.Build(corpus.Variant{Failing: true})
	okInst := b.Build(corpus.Variant{Failing: false})
	sess := core.NewSession(failInst.Mod, okInst.Mod)
	out, err := sess.Run()
	if err != nil {
		fmt.Fprintf(w, "    session error: %v\n", err)
		return false
	}
	fmt.Fprintf(w, "    failure: %s (pc=%d thread=%d)\n", out.Failure.Msg, out.Failure.PC, out.Failure.Tid)
	fmt.Fprint(w, indent(core.Format(failInst.Mod, out.Diagnosis)))
	truth := core.Truth{Kind: failInst.TruthKind, Sub: failInst.TruthSub,
		PCs: failInst.TruthPCs, Absence: failInst.TruthAbsence}
	correct := core.MatchesTruth(out.Diagnosis.Best.Pattern, truth)
	ao := core.OrderingAccuracy(out.Diagnosis.Best.Pattern, truth)
	verdict := "MATCHES developer fix"
	if !correct {
		verdict = "DOES NOT MATCH ground truth"
	}
	fmt.Fprintf(w, "    ground truth: %s  (ordering accuracy %.0f%%)\n\n", verdict, ao)
	return correct
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}

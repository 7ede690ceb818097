package shard_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"strconv"
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
	"snorlax/internal/store"
)

// The chaos test runs each shard as a real OS process — re-executing
// this test binary in child mode — so a crash is a genuine SIGKILL
// with no deferred cleanup, and recovery is a genuine fresh process
// replaying a WAL. The child protocol is one stdout line:
//
//	READY <serve-addr> <debug-addr> <restored-reports> <restored-diagnoses>
//
// printed after the WAL is restored and before serving, where
// restored-reports is how many published case reports the WAL carried
// across the crash and restored-diagnoses how many diagnoses Restore
// itself had to run (quota met pre-crash, verdict not yet logged).
const (
	chaosChildEnv = "SNORLAX_SHARD_CHILD"
	chaosAddrEnv  = "SNORLAX_SHARD_ADDR"
	chaosDebugEnv = "SNORLAX_SHARD_DEBUG"
	chaosStateEnv = "SNORLAX_SHARD_STATE"
	chaosBaseEnv  = "SNORLAX_SHARD_CASEBASE"
)

func TestMain(m *testing.M) {
	if os.Getenv(chaosChildEnv) == "1" {
		runShardChild()
		return
	}
	os.Exit(m.Run())
}

func childFatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "shard child: "+format+"\n", args...)
	os.Exit(1)
}

// bindRetry listens on addr, retrying for a while: a restarted shard
// reclaims the exact address its dead predecessor held, and the
// kernel may briefly refuse the rebind.
func bindRetry(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func counterValue(reg *obs.Registry, name string) uint64 {
	if m := reg.Find(name); m != nil && m.Counter != nil {
		return m.Counter.Value()
	}
	return 0
}

// runShardChild is the child-mode main: one durable fleet shard.
func runShardChild() {
	mod, err := ir.Parse("module fleet\n\nfunc main() {\nentry:\n  ret\n}\n")
	if err != nil {
		childFatal("parse: %v", err)
	}
	base, err := strconv.ParseUint(os.Getenv(chaosBaseEnv), 10, 64)
	if err != nil {
		childFatal("case base: %v", err)
	}
	ln, err := bindRetry(os.Getenv(chaosAddrEnv))
	if err != nil {
		childFatal("bind serve: %v", err)
	}
	debugLn, err := bindRetry(os.Getenv(chaosDebugEnv))
	if err != nil {
		childFatal("bind debug: %v", err)
	}
	w, err := store.Open(os.Getenv(chaosStateEnv), store.Options{SyncPolicy: store.SyncAlways})
	if err != nil {
		childFatal("open store: %v", err)
	}
	srv := proto.NewServer(core.NewServer(mod))
	srv.IdleTimeout = 30 * time.Second
	srv.WriteTimeout = 30 * time.Second
	srv.CaseBase = base
	srv.Store = w
	if err := srv.Restore(w.RecoveredState()); err != nil {
		childFatal("restore: %v", err)
	}
	reg := srv.Metrics()
	go http.Serve(debugLn, obs.DebugMux(reg, srv.Ready))
	fmt.Printf("READY %s %s %d %d\n", ln.Addr(), debugLn.Addr(),
		counterValue(reg, proto.MetricFleetReports),
		counterValue(reg, proto.MetricDiagnosesCompleted))
	if err := srv.Serve(ln); err != nil {
		childFatal("serve: %v", err)
	}
}

// chaosShard is the parent's handle on one shard child process. addr
// and debug are pinned after the first start so a restart reclaims
// the same endpoints (the router's member table is static).
type chaosShard struct {
	name     string
	addr     string
	debug    string
	stateDir string
	base     uint64
	cmd      *exec.Cmd
	// restoredReports / restoredDiagnoses are from the child's READY
	// line: publishes carried in the WAL and diagnoses Restore ran.
	restoredReports   uint64
	restoredDiagnoses uint64
}

func startChaosShard(t *testing.T, s *chaosShard) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		chaosChildEnv+"=1",
		chaosAddrEnv+"="+s.addr,
		chaosDebugEnv+"="+s.debug,
		chaosStateEnv+"="+s.stateDir,
		fmt.Sprintf("%s=%d", chaosBaseEnv, s.base))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lineCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
		io.Copy(io.Discard, stdout)
	}()
	select {
	case line, ok := <-lineCh:
		if !ok {
			cmd.Process.Kill()
			t.Fatalf("%s: child exited before READY", s.name)
		}
		f := strings.Fields(line)
		if len(f) != 5 || f[0] != "READY" {
			t.Fatalf("%s: bad READY line %q", s.name, line)
		}
		s.addr, s.debug = f[1], f[2]
		s.restoredReports, _ = strconv.ParseUint(f[3], 10, 64)
		s.restoredDiagnoses, _ = strconv.ParseUint(f[4], 10, 64)
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("%s: no READY within 60s", s.name)
	}
	s.cmd = cmd
}

// killShard SIGKILLs the child — no flush, no shutdown; only what the
// WAL fsynced survives.
func killShard(s *chaosShard) {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Kill()
	s.cmd.Wait()
	s.cmd = nil
}

// scrapeCounter reads one unlabeled metric off a shard's /metrics.
func scrapeCounter(t *testing.T, debugAddr, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", debugAddr, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sum, found := 0.0, false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("scrape %s: bad sample %q", name, line)
		}
		sum += v
		found = true
	}
	if !found {
		return 0
	}
	return sum
}

// assertChaosDiagnosis checks verdict bit-identity, timing stats
// excluded.
func assertChaosDiagnosis(t *testing.T, label string, got, want *core.Diagnosis) {
	t.Helper()
	if !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Errorf("%s: scores diverge:\n got %v\nwant %v", label, got.Scores, want.Scores)
	}
	if !reflect.DeepEqual(got.Best, want.Best) || got.Unique != want.Unique {
		t.Errorf("%s: best = %v (unique=%v), want %v (unique=%v)",
			label, got.Best, got.Unique, want.Best, want.Unique)
	}
	if got.AnchorPC != want.AnchorPC {
		t.Errorf("%s: anchor = %d, want %d", label, got.AnchorPC, want.AnchorPC)
	}
}

// TestChaosShardedFleet is the headline robustness run: 4 durable
// shard processes behind the router, 1000 agents across 6 programs in
// staggered waves under seeded connection chaos. Once the first wave's
// case publishes, its owning shard is SIGKILLed mid-collection and
// restarted on the same address and state dir. Afterwards, every case
// must have stopped at exactly the 10× quota, every published report
// must be bit-identical to a direct Diagnose on the traces its shard's
// WAL logged, and the restarted shard must not have re-diagnosed any
// report published before the crash.
func TestChaosShardedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes a while")
	}
	const nShards = 4
	const nAgents = 1000
	bugIDs := []string{"dbcp-1", "httpd-4", "derby-3", "groovy-2", "jdk-4", "aget-1"}

	shards := make([]*chaosShard, nShards)
	for i := range shards {
		shards[i] = &chaosShard{
			name:     fmt.Sprintf("shard-%d", i),
			stateDir: t.TempDir(),
			base:     uint64(i) << 32,
		}
		startChaosShard(t, shards[i])
	}
	t.Cleanup(func() {
		for _, s := range shards {
			killShard(s)
		}
	})

	ms := make([]shard.Member, nShards)
	for i, s := range shards {
		ms[i] = shard.Member{Name: s.name, Addr: s.addr,
			HealthURL: "http://" + s.debug + "/readyz"}
	}
	// The router keeps its own retry budget small: after it gives up it
	// drops the agent's connection, and the agent's far larger budget
	// carries the wait across the restart gap.
	router, routerAddr := startRouter(t, shard.RouterConfig{
		Members: ms,
		Retry:   proto.RetryConfig{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
	})

	// Seeded connection chaos between the agents and the router.
	seed := int64(1)
	if s := os.Getenv("SNORLAX_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SNORLAX_FAULT_SEED=%q: %v", s, err)
		}
		seed = v
	}
	// Every fault kind, Corrupt included: every hop is CRC32C-framed, so
	// a flipped byte is caught at the next frame check and surfaces as
	// a transport failure the retry loops absorb, never as a poisoned
	// trace of record.
	inj := faultnet.New(faultnet.Config{Seed: seed, FaultEvery: 40, MaxFaults: 300,
		Kinds: []faultnet.Kind{faultnet.Drop, faultnet.Stall, faultnet.PartialWrite, faultnet.Corrupt}})
	dial := inj.Dialer(func() (net.Conn, error) { return net.Dial("tcp", routerAddr) })

	// Register every program up front (idempotent — the swarm will do
	// it again) so case ownership is known before any agent runs.
	programs := make([]fleet.Program, len(bugIDs))
	owners := make([]string, len(bugIDs))
	c := dialConn(t, routerAddr)
	for i, id := range bugIDs {
		bug := corpus.ByID(id)
		if bug == nil {
			t.Fatalf("unknown corpus bug %q", id)
		}
		programs[i] = fleet.Program{
			Fail: bug.Build(corpus.Variant{Failing: true}).Mod,
			OK:   bug.Build(corpus.Variant{Failing: false}).Mod,
		}
		tenant, err := c.Register(ir.Print(programs[i].Fail))
		if err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		rep := reproduce(t, programs[i].Fail)
		owners[i] = router.Owner(shard.Key{Tenant: tenant, PC: rep.Failure.PC}).Name
	}
	c.Close()

	// The victim owns the first wave's case, so it is guaranteed to
	// hold a published report when the kill lands. If it also owns a
	// later program, push that one to the final wave so the kill lands
	// mid-collection for it.
	var victim *chaosShard
	for _, s := range shards {
		if s.name == owners[0] {
			victim = s
		}
	}
	last := len(bugIDs) - 1
	for i := 1; i < last; i++ {
		if owners[i] == victim.name {
			programs[i], programs[last] = programs[last], programs[i]
			owners[i], owners[last] = owners[last], owners[i]
			bugIDs[i], bugIDs[last] = bugIDs[last], bugIDs[i]
			break
		}
	}
	victimOwned := 0
	for _, o := range owners {
		if o == victim.name {
			victimOwned++
		}
	}
	t.Logf("victim %s owns %d/%d cases (owners %v)", victim.name, victimOwned, len(owners), owners)

	resCh := make(chan *fleet.LoadResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := fleet.RunLoad(fleet.LoadConfig{
			Dial:         dial,
			Agents:       nAgents,
			Programs:     programs,
			Concurrency:  64,
			MaxAttempts:  30,
			OpTimeout:    120 * time.Second,
			PollInterval: 2 * time.Millisecond,
			Stagger:      300 * time.Millisecond,
		})
		if err != nil {
			errCh <- err
			return
		}
		resCh <- res
	}()

	// Wait for the victim's first published report, then pull the rug:
	// SIGKILL, a beat of real downtime, restart on the same address and
	// state dir. Later waves are mid-collection throughout.
	killDeadline := time.Now().Add(90 * time.Second)
	var preReports float64
	for {
		preReports = scrapeCounter(t, victim.debug, proto.MetricFleetReports)
		if preReports >= 1 {
			break
		}
		select {
		case err := <-errCh:
			t.Fatalf("fleet load failed before the kill: %v", err)
		default:
		}
		if time.Now().After(killDeadline) {
			t.Fatalf("victim %s never published a report", victim.name)
		}
		time.Sleep(25 * time.Millisecond)
	}
	killShard(victim)
	time.Sleep(150 * time.Millisecond)
	startChaosShard(t, victim)

	// Rebalance-on-restart: every report the victim published before
	// the crash came back from its WAL.
	if victim.restoredReports < uint64(preReports) {
		t.Errorf("restart restored %d published reports, %d were published pre-crash",
			victim.restoredReports, uint64(preReports))
	}

	var res *fleet.LoadResult
	select {
	case res = <-resCh:
	case err := <-errCh:
		t.Fatalf("fleet load: %v", err)
	case <-time.After(10 * time.Minute):
		t.Fatal("fleet load did not finish")
	}
	t.Logf("load: %d agents, %d reports, %d/%d snapshots accepted",
		res.Stats.Agents, res.Stats.Reports, res.Stats.Accepted, res.Stats.Uploaded)
	if n := inj.Stats().Corruptions; n == 0 {
		t.Error("the chaos schedule corrupted no byte; Corrupt is miswired")
	} else {
		t.Logf("chaos: %+v", inj.Stats())
	}

	// Every case stopped at exactly the 10× quota and published.
	if len(res.Cases) != len(programs) {
		t.Fatalf("got %d cases, want %d", len(res.Cases), len(programs))
	}
	byOwner := map[string]int{}
	for i, cse := range res.Cases {
		if cse.Diagnosis == nil {
			t.Fatalf("case %s has no diagnosis", bugIDs[i])
		}
		if cse.Accepted != proto.DefaultFleetQuota {
			t.Errorf("case %s accepted %d snapshots, want exactly %d",
				bugIDs[i], cse.Accepted, proto.DefaultFleetQuota)
		}
		owner := router.Owner(shard.Key{Tenant: cse.Tenant, PC: cse.TriggerPC}).Name
		if owner != owners[i] {
			t.Errorf("case %s moved from %s to %s", bugIDs[i], owners[i], owner)
		}
		byOwner[owner]++
	}
	if len(byOwner) < 2 {
		t.Errorf("all cases landed on one shard: %v", byOwner)
	}

	// Zero re-diagnoses: post-restart, the victim ran one diagnosis per
	// report published after the crash (Restore's own deferred publishes
	// included) and none for reports the WAL already carried.
	reportsEnd := scrapeCounter(t, victim.debug, proto.MetricFleetReports)
	diagEnd := scrapeCounter(t, victim.debug, proto.MetricDiagnosesCompleted)
	newPublishes := reportsEnd - float64(victim.restoredReports)
	if diagEnd != newPublishes {
		t.Errorf("victim ran %v diagnoses after restart for %v new publishes — pre-crash reports were re-diagnosed",
			diagEnd, newPublishes)
	}
	if uint64(reportsEnd) != uint64(byOwner[victim.name]) {
		t.Errorf("victim reports %v != %d owned cases", reportsEnd, byOwner[victim.name])
	}

	// Bit-identity against the durable record: kill everything, open
	// each shard's WAL cold, and re-run Diagnose on exactly the logged
	// traces. Each case must live on its ring owner — and only there —
	// with the quota's worth of successes and the verdict the agents
	// fetched.
	for _, s := range shards {
		killShard(s)
	}
	states := make(map[string]*store.State, nShards)
	for _, s := range shards {
		w, err := store.Open(s.stateDir, store.Options{SyncPolicy: store.SyncAlways})
		if err != nil {
			t.Fatalf("reopen %s: %v", s.name, err)
		}
		states[s.name] = w.RecoveredState()
		w.Close()
	}
	for i, cse := range res.Cases {
		var cs *store.CaseState
		for name, st := range states {
			var ps *store.ProgramState
			if st != nil {
				for _, p := range st.Programs {
					if p.Tenant == string(cse.Tenant) {
						ps = p
					}
				}
			}
			if ps == nil {
				continue
			}
			rec, ok := ps.Cases[uint64(cse.Case)]
			if !ok {
				continue
			}
			if name != owners[i] {
				t.Errorf("case %s logged on %s, ring owner is %s", bugIDs[i], name, owners[i])
				continue
			}
			cs = rec
		}
		if cs == nil {
			t.Errorf("case %s is in no shard's WAL", bugIDs[i])
			continue
		}
		if len(cs.Successes) != proto.DefaultFleetQuota {
			t.Errorf("case %s WAL holds %d successes, want %d",
				bugIDs[i], len(cs.Successes), proto.DefaultFleetQuota)
		}
		if !cs.Done || cs.Diagnosis == nil {
			t.Errorf("case %s WAL not closed with a verdict (done=%v)", bugIDs[i], cs.Done)
			continue
		}
		failing := &core.RunReport{Failure: cs.Failure, Snapshot: cs.FailSnapshot}
		successes := make([]*core.RunReport, 0, len(cs.Successes))
		for _, snap := range cs.Successes {
			successes = append(successes, &core.RunReport{Snapshot: snap})
		}
		want, err := core.NewServer(programs[i].Fail).Diagnose(failing, successes)
		if err != nil {
			t.Fatalf("direct diagnose %s: %v", bugIDs[i], err)
		}
		assertChaosDiagnosis(t, bugIDs[i]+" (fetched)", cse.Diagnosis, want)
		assertChaosDiagnosis(t, bugIDs[i]+" (logged)", cs.Diagnosis, want)
	}
}

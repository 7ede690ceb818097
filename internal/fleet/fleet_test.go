package fleet_test

import (
	"fmt"
	"net"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/faultnet"
	"snorlax/internal/fleet"
	"snorlax/internal/proto"
)

// fleetBugs is the e2e matrix: one deadlock and one atomicity
// violation, per the acceptance criteria.
var fleetBugs = []string{"dbcp-1", "httpd-4"}

// runFleet drives a ≥4-client fleet for one corpus bug and verifies
// the acceptance criteria: the case reaches the 10× quota through
// on-demand directives, and the published report is bit-identical to
// a direct Diagnose call on the exact traces the server accepted.
func runFleet(t *testing.T, bugID string, wrap func(net.Listener) net.Listener, dial func(addr string) func() (net.Conn, error)) {
	t.Helper()
	bug := corpus.ByID(bugID)
	if bug == nil {
		t.Fatalf("unknown corpus bug %q", bugID)
	}
	failInst := bug.Build(corpus.Variant{Failing: true})
	okInst := bug.Build(corpus.Variant{Failing: false})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serveLn := ln
	if wrap != nil {
		serveLn = wrap(ln)
	}
	srv := proto.NewServer(core.NewServer(failInst.Mod))
	srv.IdleTimeout = 10 * time.Second
	srv.WriteTimeout = 10 * time.Second
	go srv.Serve(serveLn)

	res, err := fleet.Run(
		fleet.Program{Fail: failInst.Mod, OK: okInst.Mod},
		fleet.Config{Dial: dial(ln.Addr().String()), Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Diagnosis
	if got == nil {
		t.Fatal("fleet returned no diagnosis")
	}

	// Quota: the server must have stopped at exactly 10× (§4.5), fed by
	// more than one agent's uploads.
	failing, successes, ok := srv.FleetCaseTraces(res.Tenant, res.Case)
	if !ok {
		t.Fatalf("server has no case %d for tenant %s", res.Case, res.Tenant)
	}
	if len(successes) != proto.DefaultFleetQuota {
		t.Fatalf("server accepted %d success traces, want the %d× quota",
			len(successes), proto.DefaultFleetQuota)
	}
	if res.Accepted != proto.DefaultFleetQuota {
		t.Errorf("agents saw %d accepted uploads, want %d", res.Accepted, proto.DefaultFleetQuota)
	}

	// Bit-identity: a direct Diagnose on the same traces must produce
	// the same verdict, scores included (timing stats excluded).
	want, err := core.NewServer(failInst.Mod).Diagnose(failing, successes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Errorf("fleet scores diverge from direct diagnosis:\n got %v\nwant %v", got.Scores, want.Scores)
	}
	if !reflect.DeepEqual(got.Best, want.Best) || got.Unique != want.Unique {
		t.Errorf("fleet best = %v (unique=%v), direct = %v (unique=%v)",
			got.Best, got.Unique, want.Best, want.Unique)
	}
	if got.AnchorPC != want.AnchorPC {
		t.Errorf("fleet anchor = %d, direct = %d", got.AnchorPC, want.AnchorPC)
	}
	if got.Stats.SuccessTraces != want.Stats.SuccessTraces ||
		got.Stats.DroppedSuccesses != want.Stats.DroppedSuccesses {
		t.Errorf("fleet used %d traces (%d dropped), direct %d (%d dropped)",
			got.Stats.SuccessTraces, got.Stats.DroppedSuccesses,
			want.Stats.SuccessTraces, want.Stats.DroppedSuccesses)
	}

	// The fleet path must still find the developer's root cause.
	truth := core.Truth{Kind: failInst.TruthKind, Sub: failInst.TruthSub,
		PCs: failInst.TruthPCs, Absence: failInst.TruthAbsence}
	if !core.MatchesTruth(got.Best.Pattern, truth) {
		t.Errorf("fleet diagnosis %v does not match ground truth", got.Best.Pattern.Key())
	}

	// Registry gauges: the one case is published, nothing left armed.
	reg := srv.Metrics()
	if v := reg.Find(proto.MetricFleetTenants).Gauge.Value(); v != 1 {
		t.Errorf("fleet tenants gauge = %d, want 1", v)
	}
	if v := reg.Find(proto.MetricFleetArmedDirectives).Gauge.Value(); v != 0 {
		t.Errorf("armed directives gauge = %d, want 0", v)
	}
	if v := reg.Find(proto.MetricFleetReports).Counter.Value(); v != 1 {
		t.Errorf("published reports counter = %d, want 1", v)
	}
}

func plainDial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func TestFleetEndToEnd(t *testing.T) {
	for _, bugID := range fleetBugs {
		t.Run(bugID, func(t *testing.T) {
			runFleet(t, bugID, nil, plainDial)
		})
	}
}

// chaosSeeds returns the fault seed matrix: SNORLAX_FAULT_SEED pins a
// single seed (the CI fleet job sets it), otherwise {1}.
func chaosSeeds(t *testing.T) []int64 {
	if s := os.Getenv("SNORLAX_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SNORLAX_FAULT_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1}
}

// TestFleetChaos reruns the e2e flow through a faulty network: the
// idempotent fleet protocol (fingerprint registration, per-PC case
// join, sequence-deduplicated batches) must absorb dropped, stalled,
// truncated and corrupted writes and still publish a report
// bit-identical to the direct diagnosis of the accepted traces.
func TestFleetChaos(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultnet.New(faultnet.Config{
				Seed: seed, FaultEvery: 3, MaxFaults: 8, Stall: 2 * time.Millisecond})
			wrap := func(ln net.Listener) net.Listener { return inj.Listener(ln) }
			dial := func(addr string) func() (net.Conn, error) {
				return inj.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) })
			}
			runFleet(t, "httpd-4", wrap, dial)
			if inj.Stats().Total() == 0 {
				t.Error("chaos run fired no faults; the schedule is miswired")
			}
		})
	}
}

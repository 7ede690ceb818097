package snorlax_test

// Public-API durability tests: a StateDir-configured server survives a
// restart with its published reports intact, and the durable store's
// default sync policy stays within its overhead budget on the full
// fleet end-to-end path.

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	snorlax "snorlax"
)

// runPublicFleet serves prog on a fresh listener with cfg and drives
// the built-in fleet simulation against it, returning the server, the
// result, and the fleet's wall time.
func runPublicFleet(t *testing.T, failProg, okProg *snorlax.Program, cfg snorlax.ServeConfig) (*snorlax.Server, *snorlax.FleetResult, time.Duration) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv, err := snorlax.NewServer(failProg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	start := time.Now()
	res, err := snorlax.RunFleet("tcp", ln.Addr().String(), failProg, okProg, snorlax.FleetConfig{Clients: 4})
	if err != nil {
		t.Fatal(err)
	}
	return srv, res, time.Since(start)
}

func shutdownPublic(t *testing.T, srv *snorlax.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerDurabilityAcrossRestart exercises the whole public
// surface: a StateDir server runs a fleet case to publication, shuts
// down cleanly, and a second server over the same directory re-serves
// the identical report without re-running diagnosis.
func TestServerDurabilityAcrossRestart(t *testing.T) {
	failProg, okProg := uafProgram(true), uafProgram(false)
	stateDir := t.TempDir()

	srv, res, _ := runPublicFleet(t, failProg, okProg,
		snorlax.ServeConfig{StateDir: stateDir, SyncPolicy: snorlax.SyncAlways})
	if res.Report == nil {
		t.Fatal("fleet published no report")
	}
	shutdownPublic(t, srv)
	st := srv.Store()
	if st.AppendedRecords == 0 || st.AppendedBytes == 0 || st.Fsyncs == 0 {
		t.Fatalf("store stats after a durable run: %+v", st)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv2, err := snorlax.NewServer(failProg, snorlax.ServeConfig{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln)
	t.Cleanup(func() { shutdownPublic(t, srv2) })

	fc, err := snorlax.DialFleet("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	recovered, done, err := fc.FetchReport(failProg, res.Tenant, res.Case, res.TriggerPC)
	if err != nil {
		t.Fatal(err)
	}
	if !done || recovered == nil {
		t.Fatalf("case %d not re-served after restart (done=%v)", res.Case, done)
	}
	if recovered.Kind != res.Report.Kind || recovered.Pattern != res.Report.Pattern ||
		recovered.F1 != res.Report.F1 {
		t.Errorf("recovered report diverges: %v (%s, F1=%.3f) vs %v (%s, F1=%.3f)",
			recovered.Kind, recovered.Pattern, recovered.F1,
			res.Report.Kind, res.Report.Pattern, res.Report.F1)
	}
	if n := srv2.Status().CompletedDiagnoses; n != 0 {
		t.Errorf("restarted server ran %d diagnoses to re-serve a stored report", n)
	}
}

// TestServerRejectsBadStateDir pins the NewServer error path: an
// unusable state directory must fail loudly at startup, not serve with
// silently disabled durability.
func TestServerRejectsBadStateDir(t *testing.T) {
	if _, err := snorlax.NewServer(uafProgram(true),
		snorlax.ServeConfig{StateDir: "/proc/definitely/not/writable"}); err == nil {
		t.Fatal("NewServer accepted an unusable state directory")
	}
}

// spinUAFProgram is the budget-test workload: the same use-after-free
// as uafProgram, with a busy loop in the consumer so each run costs
// real interpreter time. The tiny demo program finishes in microseconds
// and would make fixed log costs look like a large relative regression;
// a realistic workload amortizes them. The loop's 10k ticks are small
// against the 50k+ sleeps, so the race's interleaving is unchanged.
func spinUAFProgram(failing bool) *snorlax.Program {
	consumerDelay, mainDelay := int64(300_000), int64(100_000)
	if !failing {
		consumerDelay, mainDelay = 50_000, 400_000
	}
	return snorlax.MustParseProgram(fmt.Sprintf(`
module demo
struct Job {
  payload: int
}
struct Ctr {
  n: int
}
global queue: *Job

func spin() {
entry:
  %%c = new Ctr
  %%p = fieldaddr %%c, n
  br loop
loop:
  %%v = load %%p
  %%v2 = add %%v, 1
  store %%v2, %%p
  %%done = eq %%v2, 2000
  condbr %%done, out, loop
out:
  ret
}

func consumer() {
entry:
  call spin()
  sleep %d
  %%j = load @queue
  %%p = fieldaddr %%j, payload
  %%v = load %%p
  ret
}

func main() {
entry:
  %%j = new Job
  store %%j, @queue
  %%t = spawn consumer()
  sleep %d
  store null:*Job, @queue
  join %%t
  ret
}
`, consumerDelay, mainDelay))
}

// TestStoreOverheadBudget checks what durability costs the fleet path.
// Everywhere, it counts fsyncs per acknowledged record over a full
// fleet e2e: none under the default interval policy, whose appends
// never wait for the disk, and exactly one under SyncAlways, which
// shows the count sees every fsync an append issues. Its wall_clock
// subtest is the hermetic budget: the same e2e with the default
// interval-sync WAL must stay within 10% of the in-memory server's
// wall time, by the median ratio of interleaved pairs, exactly like
// the observability budget. It runs only in CI's perf lane (see
// wallClockBudget).
func TestStoreOverheadBudget(t *testing.T) {
	failProg, okProg := spinUAFProgram(true), spinUAFProgram(false)
	for _, tc := range []struct {
		policy snorlax.SyncPolicy
		perRec uint64
	}{{snorlax.SyncInterval, 0}, {snorlax.SyncAlways, 1}} {
		records, fsyncs := fleetStoreCounts(t, failProg, okProg, tc.policy)
		if records == 0 || fsyncs != tc.perRec*records {
			t.Errorf("%v: %d fsyncs for %d acknowledged records, want %d per record",
				tc.policy, fsyncs, records, tc.perRec)
		}
	}

	t.Run("wall_clock", func(t *testing.T) {
		wallClockBudget(t)
		sample := func(durable bool) time.Duration {
			cfg := snorlax.ServeConfig{}
			if durable {
				cfg.StateDir = t.TempDir()
				cfg.SyncPolicy = snorlax.SyncInterval
			}
			srv, _, d := runPublicFleet(t, failProg, okProg, cfg)
			shutdownPublic(t, srv)
			return d
		}
		// Warm both paths (listener setup, scheduler, page cache) once.
		sample(false)
		sample(true)
		// One fleet run's work varies by ±15% with agent timing, so the
		// median needs more pairs here than for the fixed diagnosis: at
		// ~15ms a run, 120 pairs keep the median's spread well inside the
		// budget for about four seconds of wall time.
		overhead, medOn, medOff := pairedOverhead(120,
			func() time.Duration { return sample(false) },
			func() time.Duration { return sample(true) })
		t.Logf("fleet e2e: durable %v, in-memory %v, overhead %.2f%%", medOn, medOff, overhead)
		if overhead > 10 {
			t.Errorf("durable store overhead %.2f%% exceeds the 10%% budget (durable %v, in-memory %v)",
				overhead, medOn, medOff)
		}
	})
}

// fleetStoreCounts runs one fleet e2e against a durable server with the
// given sync policy and returns the records the collection appended
// and the fsyncs it issued, registration left out. The background
// flusher's period is far beyond the run, so every fsync counted is
// one that an append waited for.
func fleetStoreCounts(t *testing.T, failProg, okProg *snorlax.Program, policy snorlax.SyncPolicy) (records, fsyncs uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv, err := snorlax.NewServer(failProg, snorlax.ServeConfig{
		StateDir: t.TempDir(), SyncPolicy: policy, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Store()
	go srv.Serve(ln)
	if _, err := snorlax.RunFleet("tcp", ln.Addr().String(), failProg, okProg, snorlax.FleetConfig{Clients: 4}); err != nil {
		t.Fatal(err)
	}
	after := srv.Store()
	shutdownPublic(t, srv)
	return after.AppendedRecords - before.AppendedRecords, after.Fsyncs - before.Fsyncs
}

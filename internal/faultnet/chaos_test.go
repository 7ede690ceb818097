package faultnet_test

import (
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"snorlax/internal/core"
	"snorlax/internal/corpus"
	"snorlax/internal/faultnet"
	"snorlax/internal/ir"
	"snorlax/internal/proto"
	"snorlax/internal/pt"
)

// seedsUnderTest returns the chaos seed matrix: SNORLAX_FAULT_SEED
// pins a single seed (the CI matrix sets it), otherwise {1, 2, 3}.
func seedsUnderTest(t *testing.T) []int64 {
	if s := os.Getenv("SNORLAX_FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SNORLAX_FAULT_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3}
}

// corruptRing fills every thread's ring with 0xFF: the snapshot still
// travels the wire as a perfectly valid message, but no packet decoder
// accepts it — core must drop it, on the clean path and the chaotic
// path alike.
func corruptRing(snap *pt.Snapshot) *pt.Snapshot {
	out := &pt.Snapshot{Threads: make(map[int]pt.SnapshotThread, len(snap.Threads)), Time: snap.Time}
	for tid, th := range snap.Threads {
		data := make([]byte, len(th.Data))
		for i := range data {
			data[i] = 0xFF
		}
		out.Threads[tid] = pt.SnapshotThread{Data: data, Wrapped: th.Wrapped}
	}
	return out
}

// TestChaosConvergesBitIdentical is the acceptance test for the whole
// robustness layer: a retrying client pushes a session through a
// network that drops, stalls, truncates, and corrupts on a seeded
// schedule — with one success snapshot ring-corrupted for good measure
// — and the diagnosis must come out bit-identical to a fault-free run
// of the same session, with the degradation visible in the counters.
// The session is a fleet case, so every retried request is an
// idempotent fleet request.
func TestChaosConvergesBitIdentical(t *testing.T) {
	bug := corpus.ByID("pbzip2-1")
	failInst := bug.Build(corpus.Variant{Failing: true})
	rep := core.NewClient(failInst.Mod).Run(1, ir.NoPC)
	if !rep.Failed() {
		t.Fatal("expected failure")
	}
	okInst := bug.Build(corpus.Variant{Failing: false})
	okClient := core.NewClient(okInst.Mod)
	var uploads []*pt.Snapshot
	for seed := int64(1); len(uploads) < 6 && seed < 64; seed++ {
		r := okClient.Run(seed, rep.Failure.PC)
		if !r.Failed() && r.Triggered {
			uploads = append(uploads, r.Snapshot)
		}
	}
	if len(uploads) < 6 {
		t.Fatalf("gathered %d/6 success traces", len(uploads))
	}
	// Upload 3 is corrupt in BOTH runs, so DroppedSuccesses must be
	// nonzero and equal on both sides.
	uploads[3] = corruptRing(uploads[3])

	// Fault-free baseline against its own pristine server.
	cleanLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cleanLn.Close() })
	go proto.NewServer(core.NewServer(failInst.Mod)).Serve(cleanLn)
	cc := proto.DialRetrying("tcp", cleanLn.Addr().String(), proto.RetryConfig{MaxAttempts: 1})
	defer cc.Close()
	if _, err := cc.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot); err != nil {
		t.Fatal(err)
	}
	for _, snap := range uploads {
		if err := cc.SendSuccess(snap); err != nil {
			t.Fatal(err)
		}
	}
	want, err := cc.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	if cc.Retries() != 0 {
		t.Fatalf("clean run Retries = %d, want 0", cc.Retries())
	}
	if want.Stats.DroppedSuccesses != 1 {
		t.Fatalf("clean run DroppedSuccesses = %d, want 1", want.Stats.DroppedSuccesses)
	}

	for _, seed := range seedsUnderTest(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			inj := faultnet.New(faultnet.Config{
				Seed: seed, FaultEvery: 2, MaxFaults: 6, Stall: 5 * time.Millisecond})
			srv := proto.NewServer(core.NewServer(failInst.Mod))
			srv.IdleTimeout = 5 * time.Second
			srv.WriteTimeout = 5 * time.Second
			// Faults on both sides of the wire: the server's replies go
			// through the injector too.
			go srv.Serve(inj.Listener(ln))

			addr := ln.Addr().String()
			rc := proto.NewRetryClient(
				inj.Dialer(func() (net.Conn, error) { return net.Dial("tcp", addr) }),
				proto.RetryConfig{MaxAttempts: 16, BaseDelay: time.Millisecond,
					MaxDelay: 20 * time.Millisecond, JitterSeed: seed})
			defer rc.Close()

			if _, err := rc.ReportFailure(failInst.Mod, rep.Failure, rep.Snapshot); err != nil {
				t.Fatalf("ReportFailure through chaos: %v", err)
			}
			for i, snap := range uploads {
				if err := rc.SendSuccess(snap); err != nil {
					t.Fatalf("SendSuccess %d through chaos: %v", i, err)
				}
			}
			got, err := rc.Diagnose()
			if err != nil {
				t.Fatalf("Diagnose through chaos: %v", err)
			}

			if !reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Best, want.Best) {
				t.Errorf("chaotic diagnosis diverged from the fault-free run\ngot best  %+v\nwant best %+v",
					got.Best, want.Best)
			}
			if got.Stats.SuccessTraces != want.Stats.SuccessTraces {
				t.Errorf("SuccessTraces = %d, want %d", got.Stats.SuccessTraces, want.Stats.SuccessTraces)
			}
			if got.Stats.DroppedSuccesses != 1 {
				t.Errorf("DroppedSuccesses = %d, want 1", got.Stats.DroppedSuccesses)
			}
			st := inj.Stats()
			if st.Total() == 0 {
				t.Error("the fault schedule never fired; the test proved nothing")
			}
			if rc.Retries() == 0 && st.Total() > st.Stalls {
				t.Errorf("destructive faults fired (%+v) but the client reports zero retries", st)
			}
			t.Logf("faults %+v, client retries %d", st, rc.Retries())
		})
	}
}

// TestScheduleIsDeterministic replays the same write sequence under
// the same seed twice: the per-op outcomes and the fault totals must
// match exactly, or seeded chaos runs are not reproducible.
func TestScheduleIsDeterministic(t *testing.T) {
	run := func() (faultnet.Stats, []string) {
		inj := faultnet.New(faultnet.Config{
			Seed: 7, FaultEvery: 3, MaxFaults: -1, Stall: time.Microsecond})
		var outcomes []string
		for c := 0; c < 3; c++ {
			a, b := net.Pipe()
			go io.Copy(io.Discard, b)
			fc := inj.Conn(a)
			for i := 0; i < 40; i++ {
				n, err := fc.Write(make([]byte, 32))
				outcomes = append(outcomes, fmt.Sprintf("%d:%d/%v", c, n, err != nil))
			}
			a.Close()
			b.Close()
		}
		return inj.Stats(), outcomes
	}
	s1, o1 := run()
	s2, o2 := run()
	if s1 != s2 {
		t.Errorf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Error("per-op outcomes diverged across identical runs")
	}
	if s1.Total() == 0 {
		t.Error("schedule fired no faults at all")
	}
}

// TestBudgetBoundsChaos: once MaxFaults is spent, wrapped connections
// are transparent — the property that guarantees retry convergence.
func TestBudgetBoundsChaos(t *testing.T) {
	inj := faultnet.New(faultnet.Config{
		Seed: 1, FaultEvery: 1, MaxFaults: 2, Kinds: []faultnet.Kind{faultnet.Drop}})
	injected := 0
	for i := 0; i < 5; i++ {
		a, b := net.Pipe()
		go io.Copy(io.Discard, b)
		fc := inj.Conn(a)
		if _, err := fc.Write(make([]byte, 8)); err != nil {
			injected++
		}
		a.Close()
		b.Close()
	}
	if injected != 2 {
		t.Errorf("injected %d faults, want exactly the budget of 2", injected)
	}
	if !inj.Exhausted() {
		t.Error("budget spent but Exhausted() = false")
	}
	if got := (faultnet.Stats{Drops: 2}); inj.Stats() != got {
		t.Errorf("Stats = %+v, want %+v", inj.Stats(), got)
	}
}
